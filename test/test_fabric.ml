(* Tests for the staged fabric: bit-identity of every drained field,
   per-PE statistic and elapsed cycle count against recorded digests,
   in production PE visit order and in a seeded permuted one, also with
   two simulations on two domains at once; and decoding errors, unknown
   names included, raised by Fabric.create. *)

module P = Wsc_frontends.Stencil_program
module B = Wsc_benchmarks.Benchmarks
module I = Wsc_dialects.Interp
module Core = Wsc_core
module Machine = Wsc_wse.Machine
module Fabric = Wsc_wse.Fabric
module Host = Wsc_wse.Host

(* MD5 over the elapsed cycles, every per-PE statistic (column-major)
   and every element of every drained field, floats by bit pattern, of a
   run in production order or, with [visit_seed], in a seeded
   permutation of it *)
let run_digest ?visit_seed (machine : Machine.t) (p : P.t) : string =
  let _, program = Core.Pipeline.modules_of (Core.Pipeline.compile (P.compile p)) in
  let h = Host.load machine program (P.init_grids p) in
  let sim = h.Host.sim in
  Fabric.run_to_completion ?visit_seed sim;
  let b = Buffer.create 65536 in
  let fl x = Buffer.add_int64_le b (Int64.bits_of_float x) in
  let it i = Buffer.add_int64_le b (Int64.of_int i) in
  fl (Fabric.elapsed_cycles sim);
  Array.iter
    (Array.iter (fun (pe : Fabric.pe) ->
         let s = pe.Fabric.stats in
         fl s.compute_cycles;
         fl s.send_cycles;
         fl s.wait_cycles;
         it s.task_activations;
         fl s.flops;
         it s.elems_sent;
         it s.elems_drained;
         fl s.mem_bytes))
    sim.Fabric.pes;
  List.iter (fun (g : I.grid) -> Array.iter fl g.I.gdata) (Host.read_all h);
  Digest.to_hex (Digest.string (Buffer.contents b))

let machine_of = function "wse2" -> Machine.wse2 | _ -> Machine.wse3

(* ------------------------------------------------------------------ *)
(* digests                                                             *)
(* ------------------------------------------------------------------ *)

(* (benchmark, machine, size, timesteps, digest), recorded under the
   event-driven scheduler the fabric used to have (the proxy rows, full
   z, also before the fabric was staged).  That scheduler visited PEs in
   an order unlike both orders checked here, so every row pins results
   across visit orders. *)
let digests =
  [
    ("jacobian", "wse3", B.Proxy (4, 4), 3, "6501bb436ff43e2680224c8fbf0451b0");
    ("diffusion", "wse3", B.Proxy (4, 4), 3, "f659f20fd6adfd36d81c20acf2f71d5e");
    ("acoustic", "wse3", B.Proxy (4, 4), 3, "c45151ca218ca31061d8e92314a5d4ce");
    ("seismic", "wse3", B.Proxy (4, 4), 3, "4ba40ba553f2a687747cbe78ecac7f1e");
    ("uvkbe", "wse3", B.Proxy (4, 4), 3, "b8f2ac8c4854415e6426981bd2f1f069");
    ("jacobian", "wse2", B.Proxy (4, 4), 3, "374b884c0616388296565da0b9e4d571");
    ("seismic", "wse2", B.Proxy (4, 4), 3, "9f63c3f82bef0ed9433cb3833ca91169");
    ("jacobian", "wse3", B.Proxy (8, 8), 3, "6299583f6063e7bf98a538002045c3b9");
    ("diffusion", "wse3", B.Proxy (8, 8), 3, "4edf6a3f0644b78628977d824e8cc53a");
    ("acoustic", "wse3", B.Proxy (8, 8), 3, "3c139af4b18a8f45de88faa768738977");
    ("seismic", "wse3", B.Proxy (8, 8), 3, "eb52c536c533eeb8633252273042c0ba");
    ("uvkbe", "wse3", B.Proxy (8, 8), 3, "4c4304e8ff637bc7275c3fe8d9f5bf20");
    ("jacobian", "wse2", B.Proxy (8, 8), 3, "e135dc40d063c3468f5f1b11a545e241");
    ("seismic", "wse2", B.Proxy (8, 8), 3, "85980725b1496370919b0caf65c92fd3");
    ("jacobian", "wse3", B.Small, 2, "7d1059b580ab2c8ee54c33234d60e1b3");
    ("diffusion", "wse3", B.Small, 2, "dfc34be0c6f7329cfa6b1bcc4a4fc054");
    ("acoustic", "wse3", B.Small, 2, "6778396e7c2b95c258d81346140aee56");
    ("seismic", "wse3", B.Small, 2, "fc00cc2ba378993a9d1da76cab9514d8");
    ("uvkbe", "wse3", B.Small, 2, "ddc8a0ff216718c31ac9c31edf18c265");
  ]

let bench_program id size steps = (B.find id).B.make_n size steps

let check_digest ?visit_seed (id, m, size, steps, want) =
  Alcotest.(check string)
    (Printf.sprintf "%s %s %s" id m (B.size_to_string size))
    want
    (run_digest ?visit_seed (machine_of m) (bench_program id size steps))

(* the proxy rows in production order; the Small rows run only in the
   permuted order below, which keeps the suite's time down *)
let test_digests () =
  List.iter check_digest (List.filter (fun (_, _, size, _, _) -> size <> B.Small) digests)

(* every row in one seeded permutation of the PE visit order *)
let test_digests_permuted () = List.iter (check_digest ~visit_seed:7) digests

(* ------------------------------------------------------------------ *)
(* concurrency                                                         *)
(* ------------------------------------------------------------------ *)

(* Two domains run the five benchmarks' fabrics at once, in opposite
   orders; each result must equal its sequential digest, so nothing a
   staged program holds is shared between simulations. *)
let test_two_domains () =
  let cases =
    List.filter (fun (_, m, size, _, _) -> m = "wse3" && size = B.Proxy (4, 4)) digests
  in
  let run cases =
    List.map
      (fun (id, m, size, steps, _) ->
        run_digest (machine_of m) (bench_program id size steps))
      cases
  in
  let other = Domain.spawn (fun () -> run (List.rev cases)) in
  let mine = run cases in
  let theirs = List.rev (Domain.join other) in
  List.iter2
    (fun (id, _, _, _, want) (a, b) ->
      Alcotest.(check string) (id ^ " on the main domain") want a;
      Alcotest.(check string) (id ^ " on the spawned domain") want b)
    cases (List.combine mine theirs)

(* ------------------------------------------------------------------ *)
(* decode errors                                                       *)
(* ------------------------------------------------------------------ *)

module Csl = Core.Csl
module Bld = Wsc_ir.Builder

(* a 1x1 program whose [run] function holds the ops [body] inserts,
   next to a pointer global "p" and a task "t" *)
let program_with (body : Bld.t -> unit) : Wsc_ir.Ir.op =
  let open Wsc_ir.Ir in
  let b = Bld.create () in
  Bld.insert0 b (Csl.global_buffer ~name:"buf" ~size:4);
  Bld.insert0 b (Csl.ptr_global ~name:"p" ~target:"buf" ~buf_type:(Memref ([ 4 ], F32)));
  Bld.insert0 b
    (Csl.task ~name:"t" ~kind:Csl.Local_task ~id:1 (fun tb ->
         Bld.insert0 tb (Csl.return_ ())));
  Bld.insert0 b
    (Csl.func ~name:"run" (fun fb _ ->
         body fb;
         Bld.insert0 fb (Csl.return_ ())));
  let program = Csl.module_ ~kind:Csl.Program ~name:"decode" (Bld.ops b) in
  List.iter
    (fun (k, v) -> set_attr program k (Int_attr v))
    [
      ("width", 1); ("height", 1); ("memory_bytes", 64);
      ("z_halo", 0); ("zfull", 1); ("nz", 1);
    ];
  program

let contains (s : string) (sub : string) : bool =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* [Fabric.create] must raise a [Sim_error] whose message names every
   string in [names] *)
let check_refused what (names : string list) (body : Bld.t -> unit) =
  match Fabric.create Machine.wse3 (program_with body) with
  | _ -> Alcotest.failf "%s: accepted" what
  | exception Fabric.Sim_error msg ->
      List.iter
        (fun n ->
          if not (contains msg n) then Alcotest.failf "%s: %S does not name %s" what msg n)
        names
  | exception e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e)

let test_decode_errors () =
  let open Wsc_ir.Ir in
  let assign ~dests ~srcs b = Bld.insert0 b (Csl.assign_ptrs ~dests ~srcs) in
  ignore (Fabric.create Machine.wse3 (program_with (assign ~dests:[ "p" ] ~srcs:[ "p" ])));
  check_refused "unsupported op" [ "run"; "csl.bogus" ] (fun b ->
      Bld.insert0 b (create_op "csl.bogus" ~results:[]));
  check_refused "unknown callee" [ "run"; "csl.call"; "nowhere" ] (fun b ->
      Bld.insert0 b (Csl.call ~callee:"nowhere" ()));
  check_refused "unknown task" [ "run"; "csl.activate"; "nowhere" ] (fun b ->
      Bld.insert0 b (Csl.activate ~task:"nowhere"));
  check_refused "dests not a list" [ "run"; "csl.assign_ptrs"; "dests" ] (fun b ->
      assign ~dests:[ "p" ] ~srcs:[ "p" ] b;
      set_attr (List.hd (List.rev (Bld.ops b))) "dests" (Int_attr 3));
  check_refused "srcs not names" [ "run"; "csl.assign_ptrs"; "srcs" ] (fun b ->
      assign ~dests:[ "p" ] ~srcs:[ "p" ] b;
      set_attr (List.hd (List.rev (Bld.ops b))) "srcs" (Array_attr [ Int_attr 1 ]));
  check_refused "dests and srcs differ in length" [ "run"; "csl.assign_ptrs" ] (fun b ->
      assign ~dests:[ "p" ] ~srcs:[ "p" ] b;
      set_attr (List.hd (List.rev (Bld.ops b))) "srcs"
        (Array_attr [ String_attr "p"; String_attr "p" ]));
  (* storage names resolve at create, not when the op first runs *)
  let typ = Memref ([ 4 ], F32) in
  check_refused "unknown buffer" [ "run"; "csl.get_global"; "nobuf" ] (fun b ->
      ignore (Bld.insert b (Csl.get_global ~name:"nobuf" ~typ)));
  check_refused "unknown pointer" [ "run"; "csl.deref_ptr"; "noptr" ] (fun b ->
      ignore (Bld.insert b (Csl.deref_ptr ~name:"noptr" ~typ)));
  check_refused "unknown pointer source" [ "run"; "csl.assign_ptrs"; "noptr" ]
    (assign ~dests:[ "p" ] ~srcs:[ "noptr" ]);
  check_refused "unknown scalar" [ "run"; "csl.load_scalar"; "noscalar" ] (fun b ->
      ignore (Bld.insert b (Csl.load_scalar ~name:"noscalar" ~typ:I32)));
  (* an apply id indexes each PE's exchange counters *)
  check_refused "negative apply id" [ "run"; "csl.member_call"; "apply_id -1" ] (fun b ->
      let cfg =
        [ ("apply_id", Int_attr (-1)); ("chunk_size", Int_attr 1); ("inputs", Array_attr []) ]
      in
      Bld.insert0 b
        (create_op "csl.member_call" ~results:[]
           ~attrs:[ ("field", String_attr "communicate"); ("config", Dict_attr cfg) ]))

let () =
  Alcotest.run "fabric"
    [
      ( "staged",
        [
          Alcotest.test_case "digests" `Quick test_digests;
          Alcotest.test_case "digests in a permuted visit order" `Quick
            test_digests_permuted;
          Alcotest.test_case "two domains" `Quick test_two_domains;
          Alcotest.test_case "decode errors at create" `Quick test_decode_errors;
        ] );
    ]
