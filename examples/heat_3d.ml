(* 3-D heat diffusion through the mini-Devito frontend: the workload the
   paper's Diffusion benchmark is built on, here with a physical setup —
   a hot plume in a cold box — run on the simulated wafer, tracking how
   the temperature field relaxes over time.

     dune exec examples/heat_3d.exe *)

module Devito = Wsc_frontends.Devito_fe
module P = Wsc_frontends.Stencil_program
module I = Wsc_dialects.Interp

let nx, ny, nz = (8, 8, 24)
let steps = 8
let alpha_dt = 0.04

(* the same symbolic definition a Devito user writes in Python *)
let program =
  let g = Devito.grid ~shape:(nx, ny, nz) "box" in
  let u = Devito.time_function ~space_order:2 ~grid:g "u" in
  let open Devito in
  operator ~name:"heat3d" ~iterations:steps
    [ eq (forward u) (fn u + (num alpha_dt * laplace (fn u))) ]

(* a hot Gaussian blob in the middle of a cold box *)
let initial_field () : I.grid =
  let g = I.grid_of_typ (P.field_type program) in
  let h = program.P.halo in
  let cx, cy, cz = (float_of_int nx /. 2.0, float_of_int ny /. 2.0, float_of_int nz /. 2.0) in
  let p = [| 0; 0; 0 |] and zero = [| 0; 0; 0 |] in
  I.iter_box g.I.gbounds p (fun () ->
      let d2 =
        ((float_of_int p.(0) -. cx) ** 2.0)
        +. ((float_of_int p.(1) -. cy) ** 2.0)
        +. (((float_of_int p.(2) -. cz) /. 2.0) ** 2.0)
      in
      g.I.gdata.(I.index_at g p zero) <- 100.0 *. exp (-.d2 /. 8.0));
  ignore h;
  g

let stats_of (g : I.grid) =
  let total = ref 0.0 and peak = ref 0.0 and n = ref 0 in
  Array.iter
    (fun v ->
      total := !total +. v;
      peak := Float.max !peak v;
      incr n)
    g.I.gdata;
  (!total, !peak)

let () =
  let g3 = initial_field () in
  let total0, peak0 = stats_of g3 in
  Printf.printf "initial field: total heat %.1f, peak %.2f\n" total0 peak0;

  (* compile once, simulate the full run *)
  let compiled = Wsc_core.Pipeline.compile (P.compile program) in
  let host =
    Wsc_wse.Host.simulate Wsc_wse.Machine.wse3 compiled [ I.retensorize_grid g3 ]
  in
  let final = Wsc_wse.Host.read_state host 0 in
  let total1, peak1 = stats_of final in
  Printf.printf "after %d steps:  total heat %.1f, peak %.2f\n" steps total1 peak1;
  Printf.printf "simulated in %.0f cycles on %dx%d PEs (%.2f us at %s clock)\n"
    (Wsc_wse.Fabric.elapsed_cycles host.sim)
    host.sim.width host.sim.height
    (1e6 *. Wsc_wse.Fabric.elapsed_seconds host.sim)
    host.sim.machine.name;

  (* physical sanity: diffusion smooths — the peak must fall *)
  assert (peak1 < peak0);

  (* cross-check against the sequential reference *)
  let reference =
    let g = I.copy_grid g3 in
    let m = P.compile program in
    ignore (I.run_func m ~name:"main" [ I.Rgrid g ]);
    g
  in
  let diff = I.max_abs_diff (I.retensorize_grid reference) final in
  Printf.printf "max |diff| vs reference: %.2e\n" diff;
  assert (diff < 1e-3)
