(* Seismic wave propagation: the 25-point high-order stencil of the
   paper's headline benchmark, with a point source in the middle of the
   domain.  Watches the wavefront expand across the PE grid and reports
   the communication/computation breakdown the WSE's asynchronous
   execution produces.

     dune exec examples/seismic_wavefront.exe *)

module B = Wsc_benchmarks.Benchmarks
module P = Wsc_frontends.Stencil_program
module I = Wsc_dialects.Interp

let nx, ny = (10, 10)
let steps = 6

let program = (B.find "seismic").make_n (B.Proxy (nx, ny)) steps
let nz = match program.P.extents with _, _, z -> z

(* initial displacement: a sharp pulse at the domain centre, identical in
   both time levels (zero initial velocity) *)
let pulse () : I.grid =
  let g = I.grid_of_typ (P.field_type program) in
  g.I.gdata.(I.flat_index g [ nx / 2; ny / 2; nz / 2 ]) <- 1.0;
  g

(* wavefront radius: farthest xy cell (at the source depth) whose
   amplitude exceeds a threshold *)
let radius_of (g : I.grid) : float =
  let r = ref 0.0 in
  let p = [| 0; 0 |] in
  I.iter_box g.I.gbounds p (fun () ->
      let x = p.(0) and y = p.(1) in
      match I.grid_get g [ x; y ] with
      | I.Rtensor col ->
          let h = program.P.halo in
          if Float.abs col.(h + (nz / 2)) > 1e-6 then
            r :=
              Float.max !r
                (sqrt
                   ((float_of_int (x - (nx / 2)) ** 2.0)
                   +. (float_of_int (y - (ny / 2)) ** 2.0)))
      | _ -> ());
  !r

let () =
  Printf.printf "25-point seismic kernel, %dx%d PEs, %d columns deep, %d steps\n"
    nx ny nz steps;
  let u_prev = pulse () and u = pulse () in
  let compiled = Wsc_core.Pipeline.compile (P.compile program) in
  (* step count is baked into the compiled timestep task graph; run the
     whole thing and inspect the wavefront at the end *)
  let init = [ I.retensorize_grid u_prev; I.retensorize_grid u ] in
  let host = Wsc_wse.Host.simulate Wsc_wse.Machine.wse3 compiled init in
  let final = Wsc_wse.Host.read_state host 1 in
  Printf.printf "wavefront radius after %d steps: %.1f PE hops\n" steps
    (radius_of final);
  (* the 8th-order stencil has radius 4: the front can move at most 4 PEs
     per step *)
  assert (radius_of final <= float_of_int (4 * steps));
  assert (radius_of final > 0.0);

  let stats = Wsc_wse.Fabric.total_stats host.sim in
  let pes = float_of_int (nx * ny) in
  Printf.printf "per PE per step: %.0f compute cycles, %.0f send cycles, %.0f wait\n"
    (stats.compute_cycles /. pes /. float_of_int steps)
    (stats.send_cycles /. pes /. float_of_int steps)
    (stats.wait_cycles /. pes /. float_of_int steps);
  Printf.printf "task activations per PE per step: %.1f\n"
    (float_of_int stats.task_activations /. pes /. float_of_int steps);

  (* the same wave on the sequential reference, point for point *)
  let g_prev = pulse () and g_cur = pulse () in
  ignore
    (I.run_func (P.compile program) ~name:"main" [ I.Rgrid g_prev; I.Rgrid g_cur ]);
  let diff = I.max_abs_diff (I.retensorize_grid g_cur) final in
  Printf.printf "max |diff| vs sequential reference: %.2e\n" diff;
  assert (diff < 1e-4)
