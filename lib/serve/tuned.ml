(** The tuned-config cache — see the interface. *)

module J = Wsc_trace.Json
module Pipeline = Wsc_core.Pipeline
module Fingerprint = Wsc_ir.Fingerprint

(* ------------------------------------------------------------------ *)
(* options <-> JSON                                                    *)
(* ------------------------------------------------------------------ *)

let options_of_config (defaults : Pipeline.options) (kvs : (string * J.t) list) :
    (Pipeline.options, string) Stdlib.result =
  let bool_field k v =
    match v with
    | J.Bool b -> Ok b
    | _ -> Error (Printf.sprintf "config.%s: expected a bool" k)
  in
  let rec go (o : Pipeline.options) = function
    | [] -> Ok o
    | (k, v) :: rest -> (
        let set =
          match k with
          | "inline_stencils" ->
              Result.map
                (fun b -> { o with Pipeline.inline_stencils = b })
                (bool_field k v)
          | "use_varith" ->
              Result.map (fun b -> { o with Pipeline.use_varith = b }) (bool_field k v)
          | "promote_coefficients" ->
              Result.map
                (fun b -> { o with Pipeline.promote_coefficients = b })
                (bool_field k v)
          | "one_shot_reduction" ->
              Result.map
                (fun b -> { o with Pipeline.one_shot_reduction = b })
                (bool_field k v)
          | "fuse_fmac" ->
              Result.map (fun b -> { o with Pipeline.fuse_fmac = b }) (bool_field k v)
          | "comm_budget_bytes" -> (
              match v with
              | J.Int n when n > 0 -> Ok { o with Pipeline.comm_budget_bytes = n }
              | _ -> Error "config.comm_budget_bytes: expected a positive int")
          | "num_chunks_override" -> (
              match v with
              | J.Null -> Ok { o with Pipeline.num_chunks_override = None }
              | J.Int n when n > 0 ->
                  Ok { o with Pipeline.num_chunks_override = Some n }
              | _ ->
                  Error "config.num_chunks_override: expected a positive int or null")
          | "program_name" -> (
              match v with
              | J.String s when s <> "" -> Ok { o with Pipeline.program_name = s }
              | _ -> Error "config.program_name: expected a non-empty string")
          | k ->
              (* unknown knobs are fatal: accepting one silently would
                 hand two behaviorally different requests one cache key *)
              Error (Printf.sprintf "config.%s: unknown option" k)
        in
        match set with Ok o -> go o rest | Error _ as e -> e)
  in
  go defaults kvs

let config_of_options (o : Pipeline.options) : J.t =
  J.Obj
    [
      ("inline_stencils", J.Bool o.Pipeline.inline_stencils);
      ("use_varith", J.Bool o.Pipeline.use_varith);
      ("promote_coefficients", J.Bool o.Pipeline.promote_coefficients);
      ("one_shot_reduction", J.Bool o.Pipeline.one_shot_reduction);
      ("fuse_fmac", J.Bool o.Pipeline.fuse_fmac);
      ("comm_budget_bytes", J.Int o.Pipeline.comm_budget_bytes);
      ( "num_chunks_override",
        match o.Pipeline.num_chunks_override with
        | None -> J.Null
        | Some n -> J.Int n );
      ("program_name", J.String o.Pipeline.program_name);
    ]

(* ------------------------------------------------------------------ *)
(* the store                                                           *)
(* ------------------------------------------------------------------ *)

type t = {
  lock : Mutex.t;
  tbl : (string, Pipeline.options) Hashtbl.t;
  hits : int Atomic.t;
  misses : int Atomic.t;
}

let create () : t =
  {
    lock = Mutex.create ();
    tbl = Hashtbl.create 64;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
  }

let key_of_canonical (canonical : string) : string =
  Fingerprint.digest_hex canonical

let with_lock (t : t) f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let add (t : t) ~(key : string) (o : Pipeline.options) : unit =
  with_lock t (fun () -> Hashtbl.replace t.tbl key o)

let peek (t : t) (key : string) : Pipeline.options option =
  with_lock t (fun () -> Hashtbl.find_opt t.tbl key)

let find (t : t) (key : string) : Pipeline.options option =
  match peek t key with
  | Some _ as r ->
      Atomic.incr t.hits;
      r
  | None ->
      Atomic.incr t.misses;
      None

let size (t : t) : int = with_lock t (fun () -> Hashtbl.length t.tbl)

let counters (t : t) : int * int =
  (Atomic.get t.hits, Atomic.get t.misses)

(* ------------------------------------------------------------------ *)
(* persistence                                                         *)
(* ------------------------------------------------------------------ *)

let to_json (t : t) : J.t =
  let entries =
    with_lock t (fun () ->
        Hashtbl.fold (fun key o acc -> (key, o) :: acc) t.tbl [])
  in
  let entries =
    List.sort (fun (a, _) (b, _) -> String.compare a b) entries
  in
  J.summary ~tool:"tuned-configs"
    ~config:[ ("entries", J.Int (List.length entries)) ]
    ~results:
      (List.map
         (fun (key, o) ->
           J.Obj [ ("key", J.String key); ("config", config_of_options o) ])
         entries)

let of_json (doc : J.t) : (t, string) Stdlib.result =
  match Option.bind (J.member "results" doc) J.to_list_opt with
  | None -> Error "tuned-config store: no results array"
  | Some rows ->
      let t = create () in
      let rec go = function
        | [] -> Ok t
        | row :: rest -> (
            match
              ( Option.bind (J.member "key" row) J.to_string_opt,
                J.member "config" row )
            with
            | Some key, Some (J.Obj kvs) -> (
                match options_of_config Pipeline.default_options kvs with
                | Ok o ->
                    add t ~key o;
                    go rest
                | Error msg ->
                    Error (Printf.sprintf "tuned-config %s: %s" key msg))
            | _ -> Error "tuned-config store: entry needs key + config object")
      in
      go rows

let save_file (t : t) (path : string) : unit =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  J.to_channel oc (to_json t);
  output_char oc '\n'

let load_file (path : string) : (t, string) Stdlib.result =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text -> (
      match J.of_string text with
      | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
      | Ok doc -> of_json doc)
