(** Pass manager.

    A pass is a named transformation over a module op.  Pipelines compose
    passes in order; options control verification after each pass and
    hand the caller a remark and the IR after each pass ([on_remark],
    [on_ir]). *)

open Ir

type t = { pass_name : string; run : op -> op }

let make name run = { pass_name = name; run }

(** In-place pass: mutates the module and returns it. *)
let make_inplace name f =
  make name (fun m ->
      f m;
      m)

(** What one pass did to the module: its cost in wall time and its
    effect on IR size.  Fed to [options.on_remark] as each pass
    finishes; the tracing layer renders these as the pass-remarks table
    and as compiler-track spans in the exported trace. *)
type remark = {
  r_pass : string;
  r_wall_s : float;  (** the pass's own run time, seconds *)
  r_verify_s : float;  (** post-pass verifier time (0 when not verifying) *)
  r_ops_before : int;  (** total ops in the module before the pass *)
  r_ops_after : int;
}

type options = {
  verify_each : bool;  (** run the verifier after every pass *)
  on_remark : (remark -> unit) option;
      (** called after each pass (and its verification) completes; op
          counting only happens when this is set *)
  on_ir : (string -> Ir.op -> unit) option;
      (** per-pass IR snapshot hook: called with the pass name and the
          module after each pass (and, when [verify_each], after it
          verified).  The hardening oracle hangs print→parse→print
          fixpoint checks off this; exceptions the hook raises propagate
          unwrapped, so the caller keeps its own attribution. *)
}

let default_options =
  {
    verify_each = true;
    on_remark = None;
    on_ir = None;
  }

exception Pass_failed of string * exn

let () =
  Printexc.register_printer (function
    | Pass_failed (pass, exn) ->
        Some (Printf.sprintf "pass %s failed: %s" pass (Printexc.to_string exn))
    | _ -> None)

(** Run [passes] over [m] in order.  Any exception escaping a pass —
    verifier errors, [Invalid_argument], [Failure], [Not_found], … — is
    wrapped in [Pass_failed] so the failing pass is always named. *)
let run_pipeline ?(options = default_options) (passes : t list) (m : op) : op =
  let instrumented = options.on_remark <> None in
  List.fold_left
    (fun m pass ->
      let ops_before = if instrumented then Stats.total_ops m else 0 in
      let t0 = Unix.gettimeofday () in
      let m' =
        try pass.run m with
        | Pass_failed _ as e ->
            (* a nested pipeline already attributed the failure *)
            raise e
        | e -> raise (Pass_failed (pass.pass_name, e))
      in
      let t1 = Unix.gettimeofday () in
      if options.verify_each then begin
        (* the verifier's per-op checkers may raise more than
           Verification_error (e.g. Invalid_argument on a malformed
           attribute); attribute those to the pass as well *)
        try Verifier.verify m'
        with e -> raise (Pass_failed (pass.pass_name, e))
      end;
      (match options.on_ir with
      | None -> ()
      | Some hook -> hook pass.pass_name m');
      (match options.on_remark with
      | None -> ()
      | Some f ->
          let t2 = Unix.gettimeofday () in
          f
            {
              r_pass = pass.pass_name;
              r_wall_s = t1 -. t0;
              r_verify_s = (if options.verify_each then t2 -. t1 else 0.0);
              r_ops_before = ops_before;
              r_ops_after = Stats.total_ops m';
            });
      m')
    m passes

let pass_names passes = List.map (fun p -> p.pass_name) passes
