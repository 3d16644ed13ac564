(** The compile service's wire format — see the interface. *)

module J = Wsc_trace.Json
module Pipeline = Wsc_core.Pipeline

type compile_request = {
  rq_id : int;
  rq_source : string;
  rq_options : Pipeline.options;
  rq_timeout_s : float option;
}

type request = Compile of compile_request | Stats of int | Shutdown of int

(* ------------------------------------------------------------------ *)
(* config <-> options                                                  *)
(* ------------------------------------------------------------------ *)

(* Shared with the persisted tuned-config store: one serializer keys
   both surfaces, so a config that round-trips on the wire round-trips
   on disk. *)
let options_of_config = Tuned.options_of_config
let config_of_options = Tuned.config_of_options

(* ------------------------------------------------------------------ *)
(* requests                                                            *)
(* ------------------------------------------------------------------ *)

let request_of_string ~(defaults : Pipeline.options) (line : string) :
    (request, int option * string) Stdlib.result =
  match J.of_string line with
  | Error msg -> Error (None, "request is not valid JSON: " ^ msg)
  | Ok doc -> (
      let id =
        match J.member "id" doc with Some (J.Int i) -> Some i | _ -> None
      in
      let fail msg = Error (id, msg) in
      match id with
      | None -> fail "request has no integer \"id\""
      | Some id -> (
          match Option.bind (J.member "op" doc) J.to_string_opt with
          | None -> fail "request has no string \"op\""
          | Some "stats" -> Ok (Stats id)
          | Some "shutdown" -> Ok (Shutdown id)
          | Some "compile" -> (
              match Option.bind (J.member "source" doc) J.to_string_opt with
              | None -> fail "compile request has no string \"source\""
              | Some source -> (
                  let timeout_s =
                    Option.bind (J.member "timeout_s" doc) J.to_number_opt
                  in
                  match J.member "config" doc with
                  | None | Some J.Null ->
                      Ok
                        (Compile
                           {
                             rq_id = id;
                             rq_source = source;
                             rq_options = defaults;
                             rq_timeout_s = timeout_s;
                           })
                  | Some (J.Obj kvs) -> (
                      match options_of_config defaults kvs with
                      | Ok rq_options ->
                          Ok
                            (Compile
                               {
                                 rq_id = id;
                                 rq_source = source;
                                 rq_options;
                                 rq_timeout_s = timeout_s;
                               })
                      | Error msg -> fail msg)
                  | Some _ -> fail "config: expected an object"))
          | Some op -> fail (Printf.sprintf "unknown op %S" op)))

let request_to_string (r : request) : string =
  let doc =
    match r with
    | Stats id -> J.Obj [ ("id", J.Int id); ("op", J.String "stats") ]
    | Shutdown id -> J.Obj [ ("id", J.Int id); ("op", J.String "shutdown") ]
    | Compile c ->
        J.Obj
          ([
             ("id", J.Int c.rq_id);
             ("op", J.String "compile");
             ("source", J.String c.rq_source);
             ("config", config_of_options c.rq_options);
           ]
          @
          match c.rq_timeout_s with
          | None -> []
          | Some s -> [ ("timeout_s", J.Float s) ])
  in
  J.to_string doc

let compile_line ~(id : int) ~(source : string) : string =
  J.to_string
    (J.Obj
       [ ("id", J.Int id); ("op", J.String "compile"); ("source", J.String source) ])

(* ------------------------------------------------------------------ *)
(* responses                                                           *)
(* ------------------------------------------------------------------ *)

let envelope ~(id : int option) ~(op : string) (results : J.t list) : J.t =
  J.summary ~tool:"serve"
    ~config:
      [
        ("id", match id with Some i -> J.Int i | None -> J.Null);
        ("op", J.String op);
      ]
    ~results

let timing_obj (tm : Engine.timing) : J.t =
  J.Obj
    [
      ("queue_s", J.Float (Engine.queue_s tm));
      ("parse_s", J.Float (Engine.parse_s tm));
      ("compile_s", J.Float (Engine.compile_s tm));
      ("emit_s", J.Float (Engine.emit_s tm));
      ("total_s", J.Float (Engine.total_s tm));
    ]

(** The cacheable payload: everything here comes from the cached
    [Engine.compiled] record, so a hit renders it byte-identically to
    the cold compile that populated the entry. *)
let compiled_members (c : Engine.compiled) : (string * J.t) list =
  [
    ( "files",
      J.List
        (List.map
           (fun (filename, contents) ->
             J.Obj
               [
                 ("filename", J.String filename);
                 ("contents", J.String contents);
               ])
           c.Engine.files) );
    ( "compile",
      J.Obj
        [
          ("canonical_bytes", J.Int c.Engine.canonical_bytes);
          ("ops_in", J.Int c.Engine.ops_in);
          ("ops_out", J.Int c.Engine.ops_out);
          ("cold_wall_s", J.Float c.Engine.cold_wall_s);
          ( "passes",
            J.List
              (List.map
                 (fun (r : Wsc_ir.Pass.remark) ->
                   J.Obj
                     [
                       ("pass", J.String r.r_pass);
                       ("wall_s", J.Float r.r_wall_s);
                       ("verify_s", J.Float r.r_verify_s);
                       ("ops_before", J.Int r.r_ops_before);
                       ("ops_after", J.Int r.r_ops_after);
                     ])
                 c.Engine.remarks) );
        ] );
  ]

let compile_response ~(id : int) (r : Engine.result) : J.t =
  let cache_member =
    match r.Engine.cache with
    | Some `Hit -> [ ("cache", J.String "hit") ]
    | Some `Miss -> [ ("cache", J.String "miss") ]
    | None -> []
  in
  (* only rendered when a tuned-config override fired, so responses from
     engines without a store are byte-identical to the pre-tuning wire *)
  let cache_member =
    cache_member @ if r.Engine.tuned then [ ("tuned", J.Bool true) ] else []
  in
  let result =
    match r.Engine.outcome with
    | Ok c ->
        J.Obj
          ([ ("status", J.String "ok"); ("key", J.String c.Engine.key) ]
          @ cache_member
          @ compiled_members c
          @ [ ("timing", timing_obj r.Engine.timing) ])
    | Error e ->
        J.Obj
          ([
             ("status", J.String "error");
             ("kind", J.String (Engine.error_kind_to_string e.Engine.e_kind));
             ("message", J.String e.Engine.e_message);
           ]
          @ cache_member
          @ [ ("timing", timing_obj r.Engine.timing) ])
  in
  envelope ~id:(Some id) ~op:"compile" [ result ]

let protocol_error_response ~(id : int option) (msg : string) : J.t =
  envelope ~id ~op:"error"
    [
      J.Obj
        [
          ("status", J.String "error");
          ("kind", J.String "protocol");
          ("message", J.String msg);
        ];
    ]

let cache_json (s : Cache.stats) ~(tuned_hits : int) ~(tuned_misses : int) : J.t
    =
  J.Obj
    [
      ("hits", J.Int s.Cache.hits);
      ("misses", J.Int s.Cache.misses);
      ("dedup_hits", J.Int s.Cache.dedup_hits);
      ("tuned_hits", J.Int tuned_hits);
      ("tuned_misses", J.Int tuned_misses);
      ("insertions", J.Int s.Cache.insertions);
      ("evictions", J.Int s.Cache.evictions);
      ("entries", J.Int s.Cache.entries);
      ("capacity", J.Int s.Cache.capacity);
      ("hit_rate", J.Float (Cache.hit_rate s));
    ]

let stats_response ~(id : int) ~(engine : Engine.t) ?(retries = 0)
    ?(worker_restarts = 0) ~(uptime_s : float) () : J.t =
  let requests, ok, errors = Engine.counters engine in
  let tuned_hits, tuned_misses = Engine.tuned_counters engine in
  envelope ~id:(Some id) ~op:"stats"
    [
      J.Obj
        [
          ("status", J.String "ok");
          ("uptime_s", J.Float uptime_s);
          ("requests", J.Int requests);
          ("ok", J.Int ok);
          ("errors", J.Int errors);
          ("retries", J.Int retries);
          ("worker_restarts", J.Int worker_restarts);
          ( "cache",
            cache_json (Engine.cache_stats engine) ~tuned_hits ~tuned_misses );
        ];
    ]

let shutdown_response ~(id : int) : J.t =
  envelope ~id:(Some id) ~op:"shutdown"
    [ J.Obj [ ("status", J.String "ok"); ("draining", J.Bool true) ] ]

(* ------------------------------------------------------------------ *)
(* response inspection                                                 *)
(* ------------------------------------------------------------------ *)

let first_result (doc : J.t) : J.t option =
  match Option.bind (J.member "results" doc) J.to_list_opt with
  | Some (r :: _) -> Some r
  | _ -> None

let response_id (doc : J.t) : int option =
  match Option.bind (J.member "config" doc) (J.member "id") with
  | Some (J.Int i) -> Some i
  | _ -> None

let response_status (doc : J.t) : string option =
  Option.bind (first_result doc) (fun r ->
      Option.bind (J.member "status" r) J.to_string_opt)

let response_cache (doc : J.t) : string option =
  Option.bind (first_result doc) (fun r ->
      Option.bind (J.member "cache" r) J.to_string_opt)

let response_payload (doc : J.t) : string option =
  Option.bind (first_result doc) (fun r ->
      match (J.member "files" r, J.member "compile" r) with
      | Some files, Some compile ->
          Some (J.to_string (J.Obj [ ("files", files); ("compile", compile) ]))
      | _ -> None)
