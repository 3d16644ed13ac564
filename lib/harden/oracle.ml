(** Differential oracle — see the interface for the tiers.

    The pipeline runs staged (groups 1–3, then 4–5) exactly as
    [Pipeline.compile] would, so the interpreter tier can execute the
    intermediate module through the registered [csl_stencil] handler
    before lowering continues to the fabric program. *)

module P = Wsc_frontends.Stencil_program
module I = Wsc_dialects.Interp
module Pass = Wsc_ir.Pass
module Printer = Wsc_ir.Printer
module Parser = Wsc_ir.Parser
module Pipeline = Wsc_core.Pipeline

type failure =
  | Pass_crash of { pass : string; msg : string }
  | Roundtrip of { pass : string; msg : string }
  | Mismatch of { tier : string; diff : float }
  | Multiwafer of { wafers : string; diff : float }
  | Mwfault of { kind : string; wafers : string; diff : float }
  | Crash of { stage : string; msg : string }

let failure_key = function
  | Pass_crash { pass; _ } -> "pass-crash:" ^ pass
  | Roundtrip { pass; _ } -> "roundtrip:" ^ pass
  | Mismatch { tier; _ } -> "mismatch:" ^ tier
  | Multiwafer { wafers; _ } -> "multiwafer:" ^ wafers
  | Mwfault { kind; _ } -> "mwfaults:" ^ kind
  | Crash { stage; _ } -> "crash:" ^ stage

let failure_to_string = function
  | Pass_crash { pass; msg } -> Printf.sprintf "pass %s crashed: %s" pass msg
  | Roundtrip { pass; msg } -> Printf.sprintf "round-trip after %s: %s" pass msg
  | Mismatch { tier; diff } ->
      Printf.sprintf "%s tier disagrees with the reference: max |diff| = %.3e"
        tier diff
  | Multiwafer { wafers; diff } ->
      Printf.sprintf
        "%s-wafer co-simulation is not bit-identical to the single-wafer \
         fabric: max |diff| = %.3e"
        wafers diff
  | Mwfault { kind; wafers; diff } ->
      Printf.sprintf
        "%s-wafer co-simulation under %s faults did not recover \
         bit-identically: max |diff| = %.3e"
        wafers kind diff
  | Crash { stage; msg } -> Printf.sprintf "%s stage crashed: %s" stage msg

type report = {
  failure : failure option;
  ir_before : string option;
  ir_after : string option;
}

let ok (r : report) : bool = r.failure = None
let tolerance = P.tolerance

(* ------------------------------------------------------------------ *)
(* the deliberately wrong pass (test-only)                             *)
(* ------------------------------------------------------------------ *)

(** Perturbs the first [arith.constant] float in the module — a stand-in
    for a real miscompile, used to prove the harness catches one. *)
let bug_pass : Pass.t =
  Pass.make_inplace "harden-test-bug" (fun m ->
      let hit = ref false in
      Wsc_ir.Ir.walk_op
        (fun op ->
          if (not !hit) && op.Wsc_ir.Ir.opname = "arith.constant" then
            match Wsc_ir.Ir.attr op "value" with
            | Some (Wsc_ir.Ir.Float_attr v) ->
                Wsc_ir.Ir.set_attr op "value" (Wsc_ir.Ir.Float_attr (v +. 0.5));
                hit := true
            | _ -> ())
        m)

(* ------------------------------------------------------------------ *)
(* round-trip fixpoint hook                                            *)
(* ------------------------------------------------------------------ *)

(** Raised out of the [on_ir] hook (which propagates unwrapped). *)
exception Roundtrip_exn of string * string * string  (** pass, msg, printed IR *)

let roundtrip_hook (last : (string * string) ref) (pass : string)
    (m : Wsc_ir.Ir.op) : unit =
  let s1 = Printer.op_to_string m in
  (match Parser.parse_string s1 with
  | exception Parser.Parse_error (_, msg) ->
      raise (Roundtrip_exn (pass, "printed IR does not parse back: " ^ msg, s1))
  | exception e ->
      raise
        (Roundtrip_exn
           (pass, "printed IR does not parse back: " ^ Printexc.to_string e, s1))
  | m2 ->
      let s2 = Printer.op_to_string m2 in
      if not (String.equal s1 s2) then
        raise (Roundtrip_exn (pass, "print->parse->print is not a fixpoint", s1)));
  last := (pass, s1)

let run_stage ~(last : (string * string) ref) (passes : Pass.t list)
    (m : Wsc_ir.Ir.op) : Wsc_ir.Ir.op =
  let options =
    { Pass.default_options with verify_each = true; on_ir = Some (roundtrip_hook last) }
  in
  Pass.run_pipeline ~options passes m

(* ------------------------------------------------------------------ *)
(* the multi-wafer tier                                                *)
(* ------------------------------------------------------------------ *)

module MW = Wsc_multiwafer.Cosim

(** Run the program decomposed over [wafers] and demand the gathered
    fields are *bit-identical* (not merely within tolerance) to the
    single-wafer fabric's drained fields [outs]. *)
let multiwafer_tier ~(machine : Wsc_wse.Machine.t)
    ~(engine : Wsc_serve.Engine.t) (p : P.t) (outs : I.grid list)
    (wafers : int * int) : failure option =
  let wx, wy = wafers in
  let name = Printf.sprintf "%dx%d" wx wy in
  match MW.run ~engine ~machine ~wafers p with
  | exception e ->
      Some (Crash { stage = "multiwafer-" ^ name; msg = Printexc.to_string e })
  | r ->
      if MW.grids_bit_identical outs r.MW.grids then None
      else
        Some
          (Multiwafer
             { wafers = name; diff = I.max_abs_diff_list outs r.MW.grids })

(** The wafer grids worth fuzzing: the degenerate 1×1 (the decomposition
    round-trips through the engine but nothing is sliced) and 2×1 when
    the interior is wide enough to slice. *)
let multiwafer_grids (p : P.t) : (int * int) list =
  let nx, _, _ = p.P.extents in
  (1, 1) :: (if nx >= 2 then [ (2, 1) ] else [])

module Wf = Wsc_faults.Faults.Wafer

(** The chaos tier: co-simulate at 2×1 under a low-rate seeded wafer
    fault injector with the resilience protocol on, and demand the
    *recovered* fields are still bit-identical to the single-wafer
    fabric.  [Loss] is excluded: a permanently lost wafer degrades the
    run by design, which is not a miscompile. *)
let mwfaults_tier ~(machine : Wsc_wse.Machine.t)
    ~(engine : Wsc_serve.Engine.t) (p : P.t) (outs : I.grid list) :
    failure option =
  let nx, _, _ = p.P.extents in
  if nx < 2 then None
  else
    List.fold_left
      (fun acc kind ->
        match acc with
        | Some _ -> acc
        | None -> (
            let kname = Wf.kind_to_string kind in
            let faults =
              Wf.create (Wf.config_for kind ~rate:0.1 ~seed:1 ~resilient:true)
            in
            match MW.run ~engine ~machine ~faults ~wafers:(2, 1) p with
            | exception e ->
                Some
                  (Crash
                     {
                       stage = "mwfaults-" ^ kname;
                       msg = Printexc.to_string e;
                     })
            | r ->
                let degraded =
                  match r.MW.recovery with
                  | Some rc -> rc.MW.degraded
                  | None -> false
                in
                if degraded then acc
                else if MW.grids_bit_identical outs r.MW.grids then None
                else
                  Some
                    (Mwfault
                       {
                         kind = kname;
                         wafers = "2x1";
                         diff = I.max_abs_diff_list outs r.MW.grids;
                       })))
      None
      [ Wf.Halo_drop; Wf.Halo_corrupt; Wf.Crash ]

let check ?(inject_bug = false) ?(mwfaults = false)
    ?(machine = Wsc_wse.Machine.wse3)
    ?(options = Pipeline.default_options) (p : P.t) : report =
  let fail ?ir_before ?ir_after f =
    { failure = Some f; ir_before; ir_after }
  in
  match P.run_reference p with
  | exception e ->
      fail (Crash { stage = "reference"; msg = Printexc.to_string e })
  | refs -> (
      match P.compile p with
      | exception e ->
          fail (Crash { stage = "stencil-compile"; msg = Printexc.to_string e })
      | m0 -> (
          let last = ref ("stencil-compile", Printer.op_to_string m0) in
          let o = options in
          let stage1 =
            Pipeline.frontend_passes o
            @ (if inject_bug then [ bug_pass ] else [])
            @ Pipeline.middle_passes o
          in
          match run_stage ~last stage1 m0 with
          | exception Pass.Pass_failed (pass, exn) ->
              fail ~ir_before:(snd !last)
                (Pass_crash { pass; msg = Printexc.to_string exn })
          | exception Roundtrip_exn (pass, msg, after) ->
              fail ~ir_before:(snd !last) ~ir_after:after (Roundtrip { pass; msg })
          | m1 -> (
              let grids = P.init_grids p in
              match
                Wsc_core.Csl_stencil_interp.run_func m1 ~name:"main"
                  (List.map (fun g -> I.Rgrid g) grids)
              with
              | exception e ->
                  fail ~ir_before:(Printer.op_to_string m1)
                    (Crash { stage = "interp"; msg = Printexc.to_string e })
              | _ -> (
                  let diff = I.max_abs_diff_list refs grids in
                  if not (P.within_tolerance diff) then
                    fail ~ir_before:(Printer.op_to_string m1)
                      (Mismatch { tier = "interp"; diff })
                  else
                    match run_stage ~last (Pipeline.backend_passes o) m1 with
                    | exception Pass.Pass_failed (pass, exn) ->
                        fail ~ir_before:(snd !last)
                          (Pass_crash { pass; msg = Printexc.to_string exn })
                    | exception Roundtrip_exn (pass, msg, after) ->
                        fail ~ir_before:(snd !last) ~ir_after:after
                          (Roundtrip { pass; msg })
                    | m2 -> (
                        match
                          let h = Wsc_wse.Host.simulate machine m2 (P.init_grids p) in
                          Wsc_wse.Host.read_all h
                        with
                        | exception e ->
                            fail ~ir_before:(Printer.op_to_string m2)
                              (Crash { stage = "fabric"; msg = Printexc.to_string e })
                        | outs ->
                            let diff = I.max_abs_diff_list refs outs in
                            if not (P.within_tolerance diff) then
                              fail ~ir_before:(Printer.op_to_string m2)
                                (Mismatch { tier = "fabric"; diff })
                            else
                              (* final tier: the multi-wafer path must
                                 reproduce the single-wafer fabric bit
                                 for bit (fuzzer programs are always
                                 decomposable by construction) *)
                              (* the co-simulated wafers must compile
                                 under the same pipeline options as the
                                 single-wafer fabric they are compared
                                 against bit for bit *)
                              let engine =
                                Wsc_serve.Engine.create ~options ()
                              in
                              let mw_failure =
                                List.fold_left
                                  (fun acc wafers ->
                                    match acc with
                                    | Some _ -> acc
                                    | None ->
                                        multiwafer_tier ~machine ~engine p outs
                                          wafers)
                                  None (multiwafer_grids p)
                              in
                              let mw_failure =
                                match mw_failure with
                                | Some _ -> mw_failure
                                | None ->
                                    if mwfaults then
                                      mwfaults_tier ~machine ~engine p outs
                                    else None
                              in
                              (match mw_failure with
                              | Some f ->
                                  fail ~ir_before:(Printer.op_to_string m2) f
                              | None ->
                                  { failure = None; ir_before = None; ir_after = None }))))))
