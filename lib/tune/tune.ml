(** The autotuner — see the interface. *)

module B = Wsc_benchmarks.Benchmarks
module P = Wsc_frontends.Stencil_program
module Pipeline = Wsc_core.Pipeline
module WP = Wsc_perf.Wse_perf
module Oracle = Wsc_harden.Oracle
module Pool = Wsc_serve.Pool
module Tuned = Wsc_serve.Tuned
module J = Wsc_trace.Json

type config = {
  seed : int;
  screen : int;
  extent : int;
  domains : int;
  machine : Wsc_wse.Machine.t;
  oracle : bool;
}

let default_config =
  {
    seed = 1;
    screen = 24;
    extent = WP.proxy_extent;
    domains = 1;
    machine = Wsc_wse.Machine.wse3;
    oracle = true;
  }

type candidate = {
  c_options : Pipeline.options;
  c_rendered : string;
  c_predicted : (float, string) Stdlib.result;
}

type result = {
  r_bench : string;
  r_machine : string;
  r_seed : int;
  r_extent : int;
  r_program_key : string;
  r_space_size : int;
  r_screened : int;
  r_default_cycles : float;
  r_tuned_cycles : float;
  r_tuned_options : Pipeline.options;
  r_improvement_pct : float;
  r_oracle_ok : bool option;
  r_oracle_checks : int;
  r_oracle_failure : string option;
  r_candidates : candidate list;
}

(* ------------------------------------------------------------------ *)
(* seeded draws (the faults-module SplitMix64 discipline: pure hashing, *)
(* so replay from the seed is trivially byte-identical)                *)
(* ------------------------------------------------------------------ *)

let sm64 (z : int64) : int64 =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let golden = 0x9e3779b97f4a7c15L

(** [i]-th draw in [0, n) for this seed. *)
let draw ~(seed : int) (i : int) ~(n : int) : int =
  let h =
    sm64 (Int64.add (Int64.mul golden (Int64.of_int (i + 1))) (Int64.of_int seed))
  in
  Int64.to_int (Int64.logand h 0x3fffffffffffffffL) mod n

(* ------------------------------------------------------------------ *)
(* the search space                                                    *)
(* ------------------------------------------------------------------ *)

let bool_combos : (bool * bool * bool * bool * bool) list =
  List.concat_map
    (fun inline ->
      List.concat_map
        (fun varith ->
          List.concat_map
            (fun promote ->
              List.concat_map
                (fun oneshot ->
                  List.map
                    (fun fm -> (inline, varith, promote, oneshot, fm))
                    [ true; false ])
                [ true; false ])
            [ true; false ])
        [ true; false ])
    [ true; false ]

let default_budget = Pipeline.default_options.Pipeline.comm_budget_bytes
let budgets = [ default_budget / 2; default_budget; default_budget * 2 ]

(** Chunk-count overrides worth trying: the feasible (dividing) counts
    of the program's z extent, capped to ≤ 32 chunks (per-chunk task
    overhead makes very high counts both slow to simulate and never
    competitive) and thinned to at most five spread across the range. *)
let chunk_candidates ~(nz : int) : int list =
  let all = Wsc_core.To_csl_stencil.feasible_chunk_counts ~len:nz in
  let all = List.filter (fun k -> k <= 32) all in
  let arr = Array.of_list all in
  let n = Array.length arr in
  if n <= 5 then Array.to_list arr
  else
    List.sort_uniq compare
      [ arr.(0); arr.(n / 4); arr.(n / 2); arr.(3 * n / 4); arr.(n - 1) ]

let make_opts (inline, varith, promote, oneshot, fm) ~(budget : int)
    ~(ov : int option) : Pipeline.options =
  {
    Pipeline.default_options with
    Pipeline.inline_stencils = inline;
    use_varith = varith;
    promote_coefficients = promote;
    one_shot_reduction = oneshot;
    fuse_fmac = fm;
    comm_budget_bytes = budget;
    num_chunks_override = ov;
  }

(** The full feasible space, in a fixed enumeration order.  Chunk
    overrides pin the budget (the override wins inside the lowering) so
    the two axes never alias. *)
let space ~(chunks : int list) : Pipeline.options array =
  Array.of_list
    (List.concat_map
       (fun bc ->
         List.map (fun b -> make_opts bc ~budget:b ~ov:None) budgets
         @ List.map
             (fun k -> make_opts bc ~budget:default_budget ~ov:(Some k))
             chunks)
       bool_combos)

(** Always-screened candidates: the default plus every single-knob
    deviation from it — the §5.7 ablation basis. *)
let pinned ~(chunks : int list) : Pipeline.options list =
  let d = Pipeline.default_options in
  d
  :: [
       { d with Pipeline.inline_stencils = false };
       { d with Pipeline.use_varith = false };
       { d with Pipeline.promote_coefficients = false };
       { d with Pipeline.one_shot_reduction = false };
       { d with Pipeline.fuse_fmac = false };
       { d with Pipeline.comm_budget_bytes = default_budget / 2 };
       { d with Pipeline.comm_budget_bytes = default_budget * 2 };
     ]
  @ List.map (fun k -> { d with Pipeline.num_chunks_override = Some k }) chunks

(** The screening set: pinned candidates first, then seeded draws from
    the full space, deduplicated by rendered options, truncated to the
    screen budget (the default config always survives truncation). *)
let candidates ~(seed : int) ~(screen : int) ~(chunks : int list) :
    Pipeline.options list * int =
  let sp = space ~chunks in
  let n = Array.length sp in
  let seen = Hashtbl.create 64 in
  let out = ref [] in
  let count = ref 0 in
  let budget = max 1 screen in
  let push o =
    if !count < budget then begin
      let r = Pipeline.options_to_string o in
      if not (Hashtbl.mem seen r) then begin
        Hashtbl.replace seen r ();
        out := o :: !out;
        incr count
      end
    end
  in
  List.iter push (pinned ~chunks);
  (* bounded number of draws so a tiny space cannot loop forever *)
  let attempts = ref 0 in
  while !count < budget && !attempts < budget * 32 do
    push sp.(draw ~seed !attempts ~n);
    incr attempts
  done;
  (List.rev !out, n)

(** A candidate's score: steady-state cycles/iteration on the proxy
    grid, or why it failed to compile or simulate. *)
let score (d : B.descr) ~(machine : Wsc_wse.Machine.t) ~(extent : int)
    (o : Pipeline.options) : (float, string) Stdlib.result =
  match
    WP.steady_state ~pipeline_options:o ~size:(B.Proxy (extent, extent)) d
      ~machine
  with
  | c, _, _ -> Ok c
  | exception e -> Error (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* parallel candidate evaluation                                       *)
(* ------------------------------------------------------------------ *)

(** Fan a scorer over candidates on the worker pool; slot-per-candidate
    writes keep the output order deterministic regardless of which
    domain finishes first. *)
let evaluate (pool : (unit -> unit) Pool.t) (cands : Pipeline.options array)
    (score : Pipeline.options -> (float, string) Stdlib.result) :
    (float, string) Stdlib.result array =
  let out = Array.make (Array.length cands) (Error "not evaluated") in
  Array.iteri
    (fun i o -> ignore (Pool.submit pool (fun () -> out.(i) <- score o)))
    cands;
  Pool.drain pool;
  out

(* ------------------------------------------------------------------ *)
(* program identity                                                    *)
(* ------------------------------------------------------------------ *)

let source_for ?(extent = WP.proxy_extent) (d : B.descr) : string =
  let p = d.B.make_n (B.Proxy (extent, extent)) d.B.default_iterations in
  Wsc_ir.Printer.op_to_string (P.compile p)

let program_key ?extent (d : B.descr) : string =
  Tuned.key_of_canonical (source_for ?extent d)

(* ------------------------------------------------------------------ *)
(* the tuner                                                           *)
(* ------------------------------------------------------------------ *)

let run ?(config = default_config) (d : B.descr) : result =
  let cfg = config in
  let gate_iters = if d.B.default_iterations <= 1 then 1 else 2 in
  let gate_program = d.B.make_n (B.Proxy (cfg.extent, cfg.extent)) gate_iters in
  let _, _, nz = gate_program.P.extents in
  let chunks = chunk_candidates ~nz in
  let cands, space_size =
    candidates ~seed:cfg.seed ~screen:cfg.screen ~chunks
  in
  let cands = Array.of_list cands in
  let pool = Pool.create ~domains:(max 1 cfg.domains) (fun _wi job -> job ()) in
  let predicted =
    Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
    evaluate pool cands (score d ~machine:cfg.machine ~extent:cfg.extent)
  in
  let rendered = Array.map Pipeline.options_to_string cands in
  let default_rendered = Pipeline.options_to_string Pipeline.default_options in
  (* best first; ties broken by the rendered options, which are unique *)
  let ranked =
    Array.to_list (Array.mapi (fun i o -> (i, o)) cands)
    |> List.filter_map (fun (i, o) ->
           match predicted.(i) with
           | Ok s -> Some (s, rendered.(i), o)
           | Error _ -> None)
    |> List.sort compare
  in
  let default_cycles =
    match List.find_opt (fun (_, r, _) -> r = default_rendered) ranked with
    | Some (s, _, _) -> s
    | None -> failwith "tune: default configuration failed to simulate"
  in
  let winner, oracle_ok, oracle_checks, oracle_failure =
    if not cfg.oracle then
      (* [ranked] holds at least the default *)
      let s, _, o = List.hd ranked in
      ((o, s), None, 0, None)
    else
      (* the gate walks the ranking best-first up to the default: a
         candidate ranked after it is no faster, so never worth shipping *)
      let rec upto_default = function
        | [] -> []
        | ((_, r, _) as c) :: rest ->
            c :: (if r = default_rendered then [] else upto_default rest)
      in
      let rec walk checks first_failure = function
        | [] ->
            (* nothing passed — fall back to the default config and
               report the gate failure; register will refuse to ship *)
            ( (Pipeline.default_options, default_cycles),
              Some false,
              checks,
              first_failure )
        | (s, _, o) :: rest -> (
            let rep = Oracle.check ~machine:cfg.machine ~options:o gate_program in
            match rep.Oracle.failure with
            | None -> ((o, s), Some true, checks + 1, first_failure)
            | Some f ->
                let msg = Oracle.failure_to_string f in
                let first_failure =
                  match first_failure with Some _ -> first_failure | None -> Some msg
                in
                walk (checks + 1) first_failure rest)
      in
      walk 0 None (upto_default ranked)
  in
  let tuned_options, tuned_cycles = winner in
  {
    r_bench = d.B.id;
    r_machine = cfg.machine.Wsc_wse.Machine.name;
    r_seed = cfg.seed;
    r_extent = cfg.extent;
    r_program_key = program_key ~extent:cfg.extent d;
    r_space_size = space_size;
    r_screened = Array.length cands;
    r_default_cycles = default_cycles;
    r_tuned_cycles = tuned_cycles;
    r_tuned_options = tuned_options;
    r_improvement_pct =
      (if default_cycles > 0.0 then
         100.0 *. (default_cycles -. tuned_cycles) /. default_cycles
       else 0.0);
    r_oracle_ok = oracle_ok;
    r_oracle_checks = oracle_checks;
    r_oracle_failure = oracle_failure;
    r_candidates =
      List.init (Array.length cands) (fun i ->
          {
            c_options = cands.(i);
            c_rendered = rendered.(i);
            c_predicted = predicted.(i);
          });
  }

(* ------------------------------------------------------------------ *)
(* shipping and reporting                                              *)
(* ------------------------------------------------------------------ *)

let register (store : Tuned.t) (r : result) : bool =
  match r.r_oracle_ok with
  | Some true when r.r_tuned_cycles <= r.r_default_cycles ->
      Tuned.add store ~key:r.r_program_key r.r_tuned_options;
      true
  | _ -> false

let to_json (r : result) : J.t =
  let candidate_row (c : candidate) : J.t =
    J.Obj
      ([ ("config", J.String c.c_rendered) ]
      @ (match c.c_predicted with
        | Ok f -> [ ("predicted_cycles_per_iter", J.Float f) ]
        | Error m -> [ ("infeasible", J.String m) ]))
  in
  J.summary ~tool:"tune"
    ~config:
      [
        ("bench", J.String r.r_bench);
        ("machine", J.String r.r_machine);
        ("seed", J.Int r.r_seed);
        ("extent", J.Int r.r_extent);
      ]
    ~results:
      [
        J.Obj
          [
            ("program_key", J.String r.r_program_key);
            ("space_size", J.Int r.r_space_size);
            ("screened", J.Int r.r_screened);
            ("default_cycles_per_iter", J.Float r.r_default_cycles);
            ("tuned_cycles_per_iter", J.Float r.r_tuned_cycles);
            ("improvement_pct", J.Float r.r_improvement_pct);
            ("tuned_config", Tuned.config_of_options r.r_tuned_options);
            ( "oracle",
              J.Obj
                ([
                   ( "ok",
                     match r.r_oracle_ok with
                     | Some b -> J.Bool b
                     | None -> J.Null );
                   ("checks", J.Int r.r_oracle_checks);
                 ]
                @
                match r.r_oracle_failure with
                | Some m -> [ ("failure", J.String m) ]
                | None -> []) );
            ("candidates", J.List (List.map candidate_row r.r_candidates));
          ];
      ]
