(** The compile engine — see the interface. *)

module Pipeline = Wsc_core.Pipeline
module Pass = Wsc_ir.Pass
module Parser = Wsc_ir.Parser
module Printer = Wsc_ir.Printer
module Fingerprint = Wsc_ir.Fingerprint
module T = Wsc_trace.Trace

type error_kind =
  | Bad_request
  | Parse_failure
  | Pass_failure
  | Verify_failure
  | Timeout
  | Internal

let error_kind_to_string = function
  | Bad_request -> "bad-request"
  | Parse_failure -> "parse"
  | Pass_failure -> "pass"
  | Verify_failure -> "verify"
  | Timeout -> "timeout"
  | Internal -> "internal"

type error = { e_kind : error_kind; e_message : string }

type compiled = {
  key : string;
  canonical_bytes : int;
  files : (string * string) list;
  lowered : Wsc_ir.Ir.op;
  remarks : Pass.remark list;
  ops_in : int;
  ops_out : int;
  cold_wall_s : float;
}

type timing = {
  t_submit : float;
  t_start : float;
  t_parsed : float;
  t_compiled : float;
  t_done : float;
}

let queue_s (t : timing) = Float.max 0.0 (t.t_start -. t.t_submit)
let parse_s (t : timing) = Float.max 0.0 (t.t_parsed -. t.t_start)
let compile_s (t : timing) = Float.max 0.0 (t.t_compiled -. t.t_parsed)
let emit_s (t : timing) = Float.max 0.0 (t.t_done -. t.t_compiled)
let total_s (t : timing) = Float.max 0.0 (t.t_done -. t.t_submit)

type result = {
  outcome : (compiled, error) Stdlib.result;
  cache : [ `Hit | `Miss ] option;
  tuned : bool;
  timing : timing;
}

type t = {
  cache : compiled Cache.t;
  eng_options : Pipeline.options;
  tuned_store : Tuned.t option;
  timeout_s : float;
  requests : int Atomic.t;
  ok : int Atomic.t;
  errors : int Atomic.t;
}

let default_capacity = 512
let default_timeout_s = 30.0

let create ?(capacity = default_capacity) ?(timeout_s = default_timeout_s)
    ?(options = Pipeline.default_options) ?tuned () : t =
  {
    cache = Cache.create ~capacity;
    eng_options = options;
    tuned_store = tuned;
    timeout_s;
    requests = Atomic.make 0;
    ok = Atomic.make 0;
    errors = Atomic.make 0;
  }

let cache_stats (t : t) : Cache.stats = Cache.stats t.cache

let counters (t : t) : int * int * int =
  (Atomic.get t.requests, Atomic.get t.ok, Atomic.get t.errors)

let tuned_counters (t : t) : int * int =
  match t.tuned_store with None -> (0, 0) | Some s -> Tuned.counters s

(* ------------------------------------------------------------------ *)
(* keying                                                              *)
(* ------------------------------------------------------------------ *)

(** Raised by the per-pass deadline hook; [Pass.options.on_ir]
    exceptions propagate out of the pipeline unwrapped. *)
exception Timed_out

(** The tuned-config store is consulted on the *program-only* digest of
    the canonical text, before the compile key is formed — so a tuned
    program's compile key is the one its tuned options produce, and hits
    in the compile cache stay byte-identical by construction.  The
    request's [program_name] survives the override: it names the emitted
    module, which is identification, not a tuned knob. *)
let resolve_tuned (t : t) ~(count : bool) ~(opts : Pipeline.options)
    (canonical : string) : Pipeline.options * bool =
  match t.tuned_store with
  | None -> (opts, false)
  | Some store -> (
      let pk = Tuned.key_of_canonical canonical in
      let lookup = if count then Tuned.find else Tuned.peek in
      match lookup store pk with
      | Some tuned_o ->
          ({ tuned_o with Pipeline.program_name = opts.Pipeline.program_name },
           true)
      | None -> (opts, false))

(** The module's canonical text, its cache key, and the options it
    compiles under. *)
let key_module (t : t) ~(count_tuned : bool) ~(opts : Pipeline.options)
    (m : Wsc_ir.Ir.op) : string * string * Pipeline.options * bool =
  let canonical = Printer.op_to_string m in
  let opts, tuned = resolve_tuned t ~count:count_tuned ~opts canonical in
  let key =
    Fingerprint.digest_hex
      (canonical ^ "\x00" ^ Pipeline.options_to_string opts)
  in
  (key, canonical, opts, tuned)

exception Empty_source

let parse_source (source : string) : Wsc_ir.Ir.op =
  if String.trim source = "" then raise Empty_source
  else Parser.parse_string source

let error_of_exn (e : exn) : error =
  match e with
  | Timed_out -> { e_kind = Timeout; e_message = "compile deadline exceeded" }
  | Empty_source -> { e_kind = Bad_request; e_message = "empty source" }
  | Parser.Parse_error (_, msg) -> { e_kind = Parse_failure; e_message = msg }
  | Pass.Pass_failed (pass, Wsc_ir.Verifier.Verification_error msg) ->
      {
        e_kind = Verify_failure;
        e_message = Printf.sprintf "verifier rejected module after %s: %s" pass msg;
      }
  | Pass.Pass_failed (pass, inner) ->
      {
        e_kind = Pass_failure;
        e_message = Printf.sprintf "pass %s failed: %s" pass (Printexc.to_string inner);
      }
  | e -> { e_kind = Internal; e_message = Printexc.to_string e }

let key_of_source (t : t) ?options (source : string) :
    (string, error) Stdlib.result =
  let opts = Option.value options ~default:t.eng_options in
  match key_module t ~count_tuned:false ~opts (parse_source source) with
  | key, _, _, _ -> Ok key
  | exception e -> Error (error_of_exn e)

(* ------------------------------------------------------------------ *)
(* compiling                                                           *)
(* ------------------------------------------------------------------ *)

(** One compile path for sources and modules: [input ()] yields the
    module (parsing a source) and may raise. *)
let compile (t : t) ?options ?timeout_s ?submitted_at
    (input : unit -> Wsc_ir.Ir.op) : result =
  let opts = Option.value options ~default:t.eng_options in
  let timeout_s = Option.value timeout_s ~default:t.timeout_s in
  let t_start = Unix.gettimeofday () in
  let t_submit = Option.value submitted_at ~default:t_start in
  let deadline = t_start +. timeout_s in
  Atomic.incr t.requests;
  let finish ~cache ?(tuned = false) ~t_parsed ~t_compiled outcome =
    let t_done = Unix.gettimeofday () in
    (match outcome with
    | Ok _ -> Atomic.incr t.ok
    | Error _ -> Atomic.incr t.errors);
    {
      outcome;
      cache;
      tuned;
      timing = { t_submit; t_start; t_parsed; t_compiled; t_done };
    }
  in
  match
    let m = input () in
    (m, key_module t ~count_tuned:true ~opts m)
  with
  | exception e ->
      let now = Unix.gettimeofday () in
      finish ~cache:None ~t_parsed:now ~t_compiled:now (Error (error_of_exn e))
  | m, (key, canonical, opts, tuned) -> (
        let finish ~cache ~t_parsed ~t_compiled outcome =
          finish ~cache ~tuned ~t_parsed ~t_compiled outcome
        in
        let t_parsed = Unix.gettimeofday () in
        if t_parsed > deadline then
          finish ~cache:None ~t_parsed ~t_compiled:t_parsed
            (Error
               { e_kind = Timeout; e_message = "compile deadline exceeded" })
        else
          match Cache.acquire t.cache key with
          | `Hit c | `Dedup c ->
              (* a dedup hit blocked on another worker's in-flight compile
                 and got its bytes — to the requester it is a plain hit *)
              let t_compiled = Unix.gettimeofday () in
              finish ~cache:(Some `Hit) ~t_parsed ~t_compiled (Ok c)
          | `Claimed ->
              (* single-flight: this worker owns the key until release.
                 Release exactly once on EVERY exit path — an exception
                 escaping with the claim held would park the key's dedup
                 waiters forever (the mid-request-death regression) *)
              let released = ref false in
              let release v =
                released := true;
                Cache.release t.cache key v
              in
              Fun.protect ~finally:(fun () ->
                  if not !released then Cache.release t.cache key None)
              @@ fun () ->
              (
              let fail_released e =
                release None;
                let t_compiled = Unix.gettimeofday () in
                finish ~cache:(Some `Miss) ~t_parsed ~t_compiled
                  (Error (error_of_exn e))
              in
              let remarks = ref [] in
              let pass_options =
                {
                  Pass.verify_each = true;
                  on_remark = Some (fun r -> remarks := r :: !remarks);
                  on_ir =
                    Some
                      (fun _pass _m ->
                        if Unix.gettimeofday () > deadline then raise Timed_out);
                }
              in
              match Pipeline.compile ~options:opts ~pass_options m with
              | exception e -> fail_released e
              | lowered -> (
                  let t_compiled = Unix.gettimeofday () in
                  match Wsc_core.Csl_printer.print_files lowered with
                  | exception e -> fail_released e
                  | files ->
                      let files =
                        List.map
                          (fun (f : Wsc_core.Csl_printer.file) ->
                            (f.filename, f.contents))
                          files
                      in
                      let remarks = List.rev !remarks in
                      let ops_in =
                        match remarks with
                        | r :: _ -> r.Pass.r_ops_before
                        | [] -> 0
                      in
                      let ops_out =
                        match List.rev remarks with
                        | r :: _ -> r.Pass.r_ops_after
                        | [] -> 0
                      in
                      let t_emitted = Unix.gettimeofday () in
                      let c =
                        {
                          key;
                          canonical_bytes = String.length canonical;
                          files;
                          lowered;
                          remarks;
                          ops_in;
                          ops_out;
                          cold_wall_s = t_emitted -. t_start;
                        }
                      in
                      release (Some c);
                      finish ~cache:(Some `Miss) ~t_parsed ~t_compiled (Ok c))))

let compile_module (t : t) ?options ?timeout_s ?submitted_at (m : Wsc_ir.Ir.op) =
  compile t ?options ?timeout_s ?submitted_at (fun () -> m)

let compile_source (t : t) ?options ?timeout_s ?submitted_at (source : string) =
  compile t ?options ?timeout_s ?submitted_at (fun () -> parse_source source)

(* ------------------------------------------------------------------ *)
(* tracing                                                             *)
(* ------------------------------------------------------------------ *)

let emit_spans (sink : T.sink) ~(tid : int) ~(epoch : float) ~(id : int)
    (r : result) : unit =
  if T.enabled sink then begin
    let us t = (t -. epoch) *. 1e6 in
    let tm = r.timing in
    let args = [ ("id", T.Aint id) ] in
    let span name a b extra =
      (* zero-length spans confuse Perfetto's track layout; clamp *)
      let b = if b > a then b else a +. 1e-7 in
      T.span_begin sink ~pid:T.serve_pid ~tid ~cat:"serve" ~name
        ~args:(args @ extra) (us a);
      T.span_end sink ~pid:T.serve_pid ~tid ~cat:"serve" ~name (us b)
    in
    if tm.t_start > tm.t_submit then span "queue" tm.t_submit tm.t_start [];
    span "parse" tm.t_start tm.t_parsed [];
    (match (r.outcome, r.cache) with
    | Ok c, Some `Hit ->
        span "lookup" tm.t_parsed tm.t_compiled
          [ ("cache", T.Astr "hit"); ("key", T.Astr c.key) ]
    | Ok c, _ ->
        T.span_begin sink ~pid:T.serve_pid ~tid ~cat:"serve" ~name:"compile"
          ~args:(args @ [ ("cache", T.Astr "miss"); ("key", T.Astr c.key) ])
          (us tm.t_parsed);
        (* per-pass child spans, laid end to end from the compile start;
           remark wall times are the pass manager's own measurements *)
        let acc = ref tm.t_parsed in
        List.iter
          (fun (rm : Wsc_ir.Pass.remark) ->
            let b = !acc in
            let e = b +. rm.r_wall_s +. rm.r_verify_s in
            span rm.r_pass b e [];
            acc := e)
          c.remarks;
        T.span_end sink ~pid:T.serve_pid ~tid ~cat:"serve" ~name:"compile"
          (us tm.t_compiled)
    | Error err, _ ->
        span "compile" tm.t_parsed tm.t_compiled
          [
            ("status", T.Astr "error");
            ("kind", T.Astr (error_kind_to_string err.e_kind));
          ]);
    span "emit" tm.t_compiled tm.t_done []
  end
