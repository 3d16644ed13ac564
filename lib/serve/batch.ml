(** Batch driver — see the interface. *)

module J = Wsc_trace.Json
module T = Wsc_trace.Trace

type config = {
  domains : int;
  capacity : int;
  timeout_s : float;
  options : Wsc_core.Pipeline.options;
  repeat : int;
  trace_path : string option;
  tuned : Tuned.t option;
}

let default_config =
  {
    domains = 1;
    capacity = Engine.default_capacity;
    timeout_s = Engine.default_timeout_s;
    options = Wsc_core.Pipeline.default_options;
    repeat = 1;
    trace_path = None;
    tuned = None;
  }

type entry = {
  en_path : string;
  en_round : int;
  en_status : string;
  en_cache : string option;
  en_key : string option;
  en_wall_s : float;
  en_message : string option;
}

type report = {
  rp_total : int;
  rp_ok : int;
  rp_errors : int;
  rp_cancelled : int;
  rp_wall_s : float;
  rp_cache : Cache.stats;
  rp_tuned_hits : int;
  rp_tuned_misses : int;
  rp_entries : entry list;
}

let read_file (path : string) : (string, string) Stdlib.result =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> Ok contents
  | exception Sys_error msg -> Error msg

let manifest_paths (manifest : string) : string list =
  let dir = Filename.dirname manifest in
  In_channel.with_open_text manifest In_channel.input_lines
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || String.length line > 0 && line.[0] = '#' then None
         else if Filename.is_relative line then Some (Filename.concat dir line)
         else Some line)

type job = {
  j_index : int;  (** slot in the results array *)
  j_round : int;
  j_path : string;
  j_source : string;
  j_submit : float;
}

let entry_of_result ~(path : string) ~(round : int) (r : Engine.result) : entry
    =
  let cache =
    match r.Engine.cache with
    | Some `Hit -> Some "hit"
    | Some `Miss -> Some "miss"
    | None -> None
  in
  match r.Engine.outcome with
  | Ok c ->
      {
        en_path = path;
        en_round = round;
        en_status = "ok";
        en_cache = cache;
        en_key = Some c.Engine.key;
        en_wall_s = Engine.total_s r.Engine.timing;
        en_message = None;
      }
  | Error e ->
      {
        en_path = path;
        en_round = round;
        en_status = Engine.error_kind_to_string e.Engine.e_kind;
        en_cache = cache;
        en_key = None;
        en_wall_s = Engine.total_s r.Engine.timing;
        en_message = Some e.Engine.e_message;
      }

let run (cfg : config) (paths : string list) : report =
  let engine =
    Engine.create ~capacity:cfg.capacity ~timeout_s:cfg.timeout_s
      ~options:cfg.options ?tuned:cfg.tuned ()
  in
  let domains = max 1 cfg.domains in
  let repeat = max 1 cfg.repeat in
  let epoch = Unix.gettimeofday () in
  let sinks =
    Array.init domains (fun _ ->
        match cfg.trace_path with Some _ -> T.collector () | None -> T.null)
  in
  (* sources are read once on the main thread; an unreadable file is an
     ["io"] entry and never becomes a job *)
  let slots : entry option array =
    Array.make (List.length paths * repeat) None
  in
  let jobs = ref [] in
  let idx = ref 0 in
  for round = 0 to repeat - 1 do
    List.iter
      (fun path ->
        let i = !idx in
        incr idx;
        match read_file path with
        | Error msg ->
            slots.(i) <-
              Some
                {
                  en_path = path;
                  en_round = round;
                  en_status = "io";
                  en_cache = None;
                  en_key = None;
                  en_wall_s = 0.0;
                  en_message = Some msg;
                }
        | Ok source ->
            jobs :=
              {
                j_index = i;
                j_round = round;
                j_path = path;
                j_source = source;
                j_submit = 0.0;
              }
              :: !jobs)
      paths
  done;
  let jobs = List.rev !jobs in
  let worker wi (job : job) : unit =
    let r =
      Engine.compile_source engine ~submitted_at:job.j_submit job.j_source
    in
    Engine.emit_spans sinks.(wi) ~tid:wi ~epoch ~id:(job.j_index + 1) r;
    slots.(job.j_index) <-
      Some (entry_of_result ~path:job.j_path ~round:job.j_round r)
  in
  let pool = Pool.create ~domains worker in
  List.iter
    (fun job ->
      ignore (Pool.submit pool { job with j_submit = Unix.gettimeofday () }))
    jobs;
  (* poll (not block) so the signal flag stays observable *)
  let cancelled = ref 0 in
  while Pool.pending pool > 0 do
    if Server.stop_requested () && !cancelled = 0 then
      cancelled := Pool.cancel_pending pool
    else Unix.sleepf 0.01
  done;
  Pool.shutdown pool;
  (match cfg.trace_path with
  | Some path ->
      let into = T.collector () in
      Array.iteri
        (fun i _sink ->
          T.name_track into ~pid:T.serve_pid ~tid:i
            (Printf.sprintf "worker %d" i))
        sinks;
      T.name_process into ~pid:T.serve_pid "compile service";
      T.merge_into ~into (Array.to_list sinks);
      Wsc_trace.Chrome.write_file ~path into
  | None -> ());
  let entries =
    Array.to_list slots
    |> List.mapi (fun i slot ->
           match slot with
           | Some e -> e
           | None ->
               (* cancelled before a worker picked it up *)
               let paths_arr = Array.of_list paths in
               let n = Array.length paths_arr in
               {
                 en_path = paths_arr.(i mod n);
                 en_round = i / n;
                 en_status = "cancelled";
                 en_cache = None;
                 en_key = None;
                 en_wall_s = 0.0;
                 en_message = None;
               })
  in
  let count p = List.length (List.filter p entries) in
  {
    rp_total = List.length entries;
    rp_ok = count (fun e -> e.en_status = "ok");
    rp_errors =
      count (fun e -> e.en_status <> "ok" && e.en_status <> "cancelled");
    rp_cancelled = count (fun e -> e.en_status = "cancelled");
    rp_wall_s = Unix.gettimeofday () -. epoch;
    rp_cache = Engine.cache_stats engine;
    rp_tuned_hits = fst (Engine.tuned_counters engine);
    rp_tuned_misses = snd (Engine.tuned_counters engine);
    rp_entries = entries;
  }

let report_to_json (cfg : config) (r : report) : J.t =
  J.summary ~tool:"batch"
    ~config:
      [
        ("domains", J.Int (max 1 cfg.domains));
        ("repeat", J.Int (max 1 cfg.repeat));
        ("cache_capacity", J.Int cfg.capacity);
        ("timeout_s", J.Float cfg.timeout_s);
      ]
    ~results:
      [
        J.Obj
          [
            ("total", J.Int r.rp_total);
            ("ok", J.Int r.rp_ok);
            ("errors", J.Int r.rp_errors);
            ("cancelled", J.Int r.rp_cancelled);
            ("wall_s", J.Float r.rp_wall_s);
            ( "cache",
              Protocol.cache_json r.rp_cache ~tuned_hits:r.rp_tuned_hits
                ~tuned_misses:r.rp_tuned_misses );
            ( "files",
              J.List
                (List.map
                   (fun e ->
                     J.Obj
                       ([
                          ("path", J.String e.en_path);
                          ("round", J.Int e.en_round);
                          ("status", J.String e.en_status);
                        ]
                       @ (match e.en_cache with
                         | Some c -> [ ("cache", J.String c) ]
                         | None -> [])
                       @ (match e.en_key with
                         | Some k -> [ ("key", J.String k) ]
                         | None -> [])
                       @ [ ("wall_s", J.Float e.en_wall_s) ]
                       @
                       match e.en_message with
                       | Some m -> [ ("message", J.String m) ]
                       | None -> []))
                   r.rp_entries) );
          ];
      ]

let dump_requests (oc : out_channel) (paths : string list) : unit =
  List.iteri
    (fun i path ->
      match read_file path with
      | Error msg ->
          Printf.eprintf "wsc batch: skipping %s: %s\n%!" path msg
      | Ok source ->
          output_string oc (Protocol.compile_line ~id:(i + 1) ~source);
          output_char oc '\n')
    paths
