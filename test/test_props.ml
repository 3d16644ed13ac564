(* Property-based tests over the whole system: random stencil programs
   compiled through the complete pipeline and executed on the fabric
   simulator must agree with the sequential reference interpreter; plus
   algebraic properties of the buffer-view kernel library. *)

module P = Wsc_frontends.Stencil_program
module I = Wsc_dialects.Interp
module Core = Wsc_core
module Bufview = Wsc_core.Bufview


(* ------------------------------------------------------------------ *)
(* random star-stencil programs                                        *)
(* ------------------------------------------------------------------ *)

(* a random star-shaped term: coefficient x access at an offset on the
   cross (so the generated program is within the pipeline's supported
   communication patterns), with optional squaring of local accesses *)
let term_gen : P.expr QCheck.Gen.t =
  let open QCheck.Gen in
  let offset =
    oneof
      [
        return [ 0; 0; 0 ];
        map (fun d -> [ d; 0; 0 ]) (oneof [ return (-2); return (-1); return 1; return 2 ]);
        map (fun d -> [ 0; d; 0 ]) (oneof [ return (-1); return 1 ]);
        map (fun d -> [ 0; 0; d ]) (oneof [ return (-1); return 1 ]);
      ]
  in
  let* c = float_range (-2.0) 2.0 in
  let* off = offset in
  let* grid = oneofl [ "u"; "u" ] in
  let acc = P.Access (grid, off) in
  let* square = bool in
  (* only local accesses may appear non-linearly: a squared remote access
     is fine (remote-pure), but keep the generator simple and always
     linear for remote terms with several grids *)
  if square && off = [ 0; 0; 0 ] then return (P.Mul (acc, acc))
  else return (P.Mul (P.Const c, acc))

let program_gen : P.t QCheck.Gen.t =
  let open QCheck.Gen in
  let* n_terms = int_range 2 6 in
  let* terms = list_repeat n_terms term_gen in
  (* ensure at least one remote term so the kernel communicates *)
  let* d = oneofl [ 1; -1 ] in
  let terms = P.Mul (P.Const 0.3, P.Access ("u", [ d; 0; 0 ])) :: terms in
  let expr = List.fold_left (fun a t -> P.Add (a, t)) (List.hd terms) (List.tl terms) in
  let* nx = int_range 3 5 in
  let* ny = int_range 3 5 in
  let* nz = int_range 4 8 in
  let* iterations = int_range 1 3 in
  return
    {
      P.pname = "prop";
      frontend = "qcheck";
      extents = (nx, ny, nz);
      halo = 2;
      state = [ "u" ];
      kernels = [ { P.kname = "k"; output = "w"; expr } ];
      next_state = [ "w" ];
      iterations;
      use_loop = true;
      dsl_loc = 0;
    }

let print_program (p : P.t) =
  let nx, ny, nz = p.P.extents in
  let rec s = function
    | P.Const c -> Printf.sprintf "%g" c
    | P.Access (g, off) ->
        Printf.sprintf "%s[%s]" g (String.concat "," (List.map string_of_int off))
    | P.Add (a, b) -> Printf.sprintf "(%s + %s)" (s a) (s b)
    | P.Sub (a, b) -> Printf.sprintf "(%s - %s)" (s a) (s b)
    | P.Mul (a, b) -> Printf.sprintf "(%s * %s)" (s a) (s b)
    | P.Div (a, b) -> Printf.sprintf "(%s / %s)" (s a) (s b)
  in
  Printf.sprintf "%dx%dx%d x%d: %s" nx ny nz p.P.iterations
    (s (List.hd p.P.kernels).P.expr)

let run_on_fabric ?(machine = Wsc_wse.Machine.wse3) (p : P.t) : I.grid list =
  let compiled = Core.Pipeline.compile (P.compile p) in
  let h = Wsc_wse.Host.simulate machine compiled (P.init_grids p) in
  Wsc_wse.Host.read_all h

let agrees p out =
  let ref_grids = P.run_reference p in
  List.for_all2 (fun a b -> I.max_abs_diff a b < 1e-4) ref_grids out

let prop_pipeline_end_to_end =
  QCheck.Test.make ~name:"random program: fabric = reference (WSE3)" ~count:40
    (QCheck.make ~print:print_program program_gen)
    (fun p -> agrees p (run_on_fabric p))

let prop_pipeline_end_to_end_wse2 =
  QCheck.Test.make ~name:"random program: fabric = reference (WSE2)" ~count:20
    (QCheck.make ~print:print_program program_gen)
    (fun p -> agrees p (run_on_fabric ~machine:Wsc_wse.Machine.wse2 p))

let masked_program_gen : P.t QCheck.Gen.t =
  (* gate the whole expression by a locally held field: forces pack mode *)
  let open QCheck.Gen in
  let* p = program_gen in
  let k = List.hd p.P.kernels in
  let expr = P.Mul (P.Access ("mask", [ 0; 0; 0 ]), k.P.expr) in
  return
    {
      p with
      P.state = p.P.state @ [ "mask" ];
      next_state = p.P.next_state @ [ "mask" ];
      kernels = [ { k with P.expr } ];
    }

let prop_pack_mode_end_to_end =
  QCheck.Test.make ~name:"random masked program: pack mode = reference" ~count:25
    (QCheck.make ~print:print_program masked_program_gen)
    (fun p -> agrees p (run_on_fabric p))

let prop_interp_oracle_after_each_stage =
  (* the interpreter oracle must agree after groups 1-3, too *)
  QCheck.Test.make ~name:"random program: staged lowering preserves semantics"
    ~count:25
    (QCheck.make ~print:print_program program_gen)
    (fun p ->
      let o = Core.Pipeline.default_options in
      let passes =
        Core.Pipeline.frontend_passes o @ Core.Pipeline.middle_passes o
      in
      let m = Wsc_ir.Pass.run_pipeline passes (P.compile p) in
      let grids = P.init_grids p in
      ignore
        (Core.Csl_stencil_interp.run_func m ~name:"main" (List.map (fun g -> I.Rgrid g) grids));
      agrees p grids)

(* ------------------------------------------------------------------ *)
(* printer / parser fuzzing                                            *)
(* ------------------------------------------------------------------ *)

open Wsc_ir.Ir

let typ_gen : typ QCheck.Gen.t =
  let open QCheck.Gen in
  let scalar = oneofl [ F16; F32; F64; I1; I16; I32; I64; Index ] in
  let dims = list_size (int_range 1 3) (int_range 1 16) in
  let bounds = list_size (int_range 1 3) (map (fun l -> (l, l + 8)) (int_range (-4) 4)) in
  oneof
    [
      scalar;
      map2 (fun d e -> Tensor (d, e)) dims scalar;
      map2 (fun d e -> Memref (d, e)) dims scalar;
      map2 (fun b e -> Temp (b, e)) bounds scalar;
      map2 (fun b e -> Field (b, e)) bounds scalar;
      (let* b = bounds in
       let* n = int_range 1 16 in
       return (Temp (b, Tensor ([ n ], F32))));
      map (fun e -> Ptr (e, Ptr_many)) scalar;
      oneofl [ Dsd Mem1d; Dsd Mem4d; Dsd Fabin; Dsd Fabout; Color ];
    ]

let prop_typ_roundtrip =
  QCheck.Test.make ~name:"random types round-trip the printer/parser" ~count:300
    (QCheck.make ~print:Wsc_ir.Printer.typ_to_string typ_gen)
    (fun t ->
      let text =
        Printf.sprintf "%%r = \"t.op\"() : () -> (%s)"
          (Wsc_ir.Printer.typ_to_string t)
      in
      let parsed = Wsc_ir.Parser.parse_string text in
      (result parsed).vtyp = t)

(* Floats the printer has to write exactly: arbitrary fractions,
   integral values on both sides of the 1e15 switch from "%.6f" to
   "%.17g", infinities and NaN. *)
let float_gen : float QCheck.Gen.t =
  let open QCheck.Gen in
  oneof
    [
      float_range (-100.0) 100.0;
      map float_of_int (int_range (-1000) 1000);
      map (fun i -> Float.of_int i *. 1e13) (int_range (-100000) 100000);
      map (fun s -> s *. Float.ldexp 1.0 60) (float_range (-1.0) 1.0);
      oneofl [ 1e15; -1e15; 99999999999999990.0; Float.infinity;
               Float.neg_infinity; Float.nan; -.Float.nan; -0.0 ];
    ]

let attr_gen : attr QCheck.Gen.t =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        return Unit_attr;
        map (fun b -> Bool_attr b) bool;
        map (fun i -> Int_attr i) (int_range (-1000) 1000);
        map (fun f -> Float_attr f) float_gen;
        map (fun l -> Dense_floats l) (list_size (int_range 1 4) float_gen);
        map (fun s -> String_attr s)
          (string_size ~gen:(char_range 'a' 'z') (int_range 0 8));
        map (fun l -> Dense_ints l) (list_size (int_range 1 4) (int_range (-9) 9));
        map (fun s -> Symbol_ref ("f" ^ s))
          (string_size ~gen:(char_range 'a' 'z') (int_range 1 5));
      ]
  in
  sized
    (fix (fun self n ->
         if n <= 1 then leaf
         else
           oneof
             [
               leaf;
               map (fun l -> Array_attr l) (list_size (int_range 0 3) (self (n / 2)));
               map
                 (fun l ->
                   Dict_attr (List.mapi (fun i a -> (Printf.sprintf "k%d" i, a)) l))
                 (list_size (int_range 0 3) (self (n / 2)));
             ]))

let fuzz_program_gen : P.t QCheck.Gen.t =
  (* qcheck only picks the (seed, index) pair; the program itself comes
     from the deterministic hardening fuzzer, so shrinking stays cheap
     and failures replay exactly *)
  QCheck.Gen.(
    map2
      (fun seed index -> Wsc_harden.Fuzz.generate ~seed ~index)
      (int_range 1 1000) (int_range 0 1000))

let prop_fuzz_module_roundtrip =
  QCheck.Test.make
    ~name:"fuzzer-generated modules: print->parse->print is a fixpoint"
    ~count:60
    (QCheck.make ~print:Wsc_harden.Fuzz.describe fuzz_program_gen)
    (fun p ->
      let s1 = Wsc_ir.Printer.op_to_string (P.compile p) in
      let s2 = Wsc_ir.Printer.op_to_string (Wsc_ir.Parser.parse_string s1) in
      s1 = s2)

let prop_fuzz_module_roundtrip_lowered =
  (* the same fixpoint must hold for the name-hint-heavy IR the lowering
     produces (groups 1-3) *)
  QCheck.Test.make
    ~name:"lowered fuzzer modules: print->parse->print is a fixpoint" ~count:15
    (QCheck.make ~print:Wsc_harden.Fuzz.describe fuzz_program_gen)
    (fun p ->
      let o = Core.Pipeline.default_options in
      let passes =
        Core.Pipeline.frontend_passes o @ Core.Pipeline.middle_passes o
      in
      let m = Wsc_ir.Pass.run_pipeline passes (P.compile p) in
      let s1 = Wsc_ir.Printer.op_to_string m in
      let s2 = Wsc_ir.Printer.op_to_string (Wsc_ir.Parser.parse_string s1) in
      s1 = s2)

let prop_attr_roundtrip =
  QCheck.Test.make ~name:"random attributes round-trip" ~count:300
    (QCheck.make attr_gen)
    (fun a ->
      let op = create_op "t.op" ~results:[] ~attrs:[ ("x", a) ] in
      let text = Wsc_ir.Printer.op_to_string op in
      match Wsc_ir.Parser.parse_string text with
      | parsed -> (
          match attr parsed "x" with
          | Some a2 ->
              (* every float, NaN and infinities included, must come back
                 bit for bit; everything else must be structurally
                 identical *)
              let same_float f g =
                Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float g)
              in
              let rec exact x y =
                match (x, y) with
                | Float_attr f, Float_attr g -> same_float f g
                | Dense_floats fs, Dense_floats gs ->
                    List.length fs = List.length gs
                    && List.for_all2 same_float fs gs
                | Array_attr xs, Array_attr ys ->
                    List.length xs = List.length ys && List.for_all2 exact xs ys
                | Dict_attr xs, Dict_attr ys ->
                    List.length xs = List.length ys
                    && List.for_all2
                         (fun (k1, v1) (k2, v2) -> k1 = k2 && exact v1 v2)
                         xs ys
                | x, y -> x = y
              in
              exact a a2
          | None -> false))

(* ------------------------------------------------------------------ *)
(* Bufview algebra                                                     *)
(* ------------------------------------------------------------------ *)

let arr_gen n = QCheck.Gen.(array_size (return n) (float_range (-50.0) 50.0))

let prop_bufview_sub_aliases =
  QCheck.Test.make ~name:"subview writes reach the parent" ~count:200
    QCheck.(pair (int_range 0 5) (float_range (-9.0) 9.0))
    (fun (off, v) ->
      let a = Array.make 10 0.0 in
      let whole = Bufview.of_array a in
      let sub = Bufview.sub whole ~off ~len:3 in
      Bufview.set sub 1 v;
      a.(off + 1) = v)

let prop_bufview_fmac =
  QCheck.Test.make ~name:"fmac_into = a + b*s" ~count:200
    QCheck.(
      triple
        (make (arr_gen 6))
        (make (arr_gen 6))
        (float_range (-3.0) 3.0))
    (fun (a, b, s) ->
      let dst = Array.make 6 0.0 in
      Bufview.fmac_into (Bufview.of_array a) (Bufview.of_array b) s
        (Bufview.of_array dst);
      Array.for_all (fun x -> Float.is_finite x) dst
      && Array.for_all2
           (fun d (x, y) -> d = x +. (y *. s))
           dst
           (Array.map2 (fun x y -> (x, y)) a b))

let prop_bufview_inplace_accumulate =
  QCheck.Test.make ~name:"in-place add matches functional sum" ~count:200
    QCheck.(pair (make (arr_gen 8)) (make (arr_gen 8)))
    (fun (a, b) ->
      let acc = Array.copy a in
      let va = Bufview.of_array acc and vb = Bufview.of_array b in
      (* dst aliases an operand, as the accumulator reuse relies on *)
      Bufview.arith_into Bufview.Add va vb va;
      Array.for_all2 (fun x (p, q) -> x = p +. q) acc
        (Array.map2 (fun p q -> (p, q)) a b))

let prop_bufview_strided =
  QCheck.Test.make ~name:"strided views" ~count:100 QCheck.(int_range 1 3)
    (fun stride ->
      let a = Array.init 12 float_of_int in
      let len = (12 + stride - 1) / stride in
      let v = Bufview.make a ~off:0 ~len ~stride () in
      let ok = ref true in
      for i = 0 to len - 1 do
        if Bufview.get v i <> float_of_int (i * stride) then ok := false
      done;
      !ok)

let prop_bufview_bounds_checked =
  QCheck.Test.make ~name:"out-of-range views rejected" ~count:50
    QCheck.(int_range 5 20)
    (fun len ->
      let a = Array.make 4 0.0 in
      let rejected f = match f () with exception Invalid_argument _ -> true | _ -> false in
      rejected (fun () -> Bufview.make a ~off:0 ~len ())
      (* a negative stride running below the array, or starting past it *)
      && rejected (fun () -> Bufview.make a ~off:3 ~len ~stride:(-1) ())
      && rejected (fun () -> Bufview.make a ~off:len ~len:2 ~stride:(-len) ()))

(* Every kernel against a naive per-element loop over [Bufview.get]/[set]
   on random views: strides -2 to 3 (mostly 1), random offsets and lengths (length 0
   included) over two backing arrays, so operands often alias or overlap;
   [dst] is [a] itself or [b] shifted in a quarter of the cases each.
   A third of the cases then break the views by record update, as the
   fabric builds DSDs: every length one longer, or one view's offset
   negative.  When some view leaves its array, the kernel must raise
   [Invalid_argument] and leave both arrays as they were. *)
type kernel =
  | Fill
  | Blit
  | Arith of Bufview.arith
  | Arith_scalar of Bufview.arith
  | Scalar_arith of Bufview.arith
  | Fmac

let kernels =
  let ops = Bufview.[ Add; Sub; Mul; Div ] in
  [ Fill; Blit; Fmac ]
  @ List.concat_map (fun op -> [ Arith op; Arith_scalar op; Scalar_arith op ]) ops

let apply_op (op : Bufview.arith) x y =
  match op with Add -> x +. y | Sub -> x -. y | Mul -> x *. y | Div -> x /. y

let run_kernel kernel ~k (a : Bufview.t) (b : Bufview.t) (dst : Bufview.t) =
  match kernel with
  | Fill -> Bufview.fill dst k
  | Blit -> Bufview.blit ~src:a ~dst
  | Arith op -> Bufview.arith_into op a b dst
  | Arith_scalar op -> Bufview.arith_scalar_into op a k dst
  | Scalar_arith op -> Bufview.scalar_arith_into op k b dst
  | Fmac -> Bufview.fmac_into a b k dst

let reference_kernel kernel ~k (a : Bufview.t) (b : Bufview.t) (dst : Bufview.t) =
  let get = Bufview.get in
  for i = 0 to dst.len - 1 do
    Bufview.set dst i
      (match kernel with
      | Fill -> k
      | Blit -> get a i
      | Arith op -> apply_op op (get a i) (get b i)
      | Arith_scalar op -> apply_op op (get a i) k
      | Scalar_arith op -> apply_op op k (get b i)
      | Fmac -> get a i +. (get b i *. k))
  done

(* whether every element of [v] lies inside its array *)
let view_inside (v : Bufview.t) =
  let ok = ref true in
  for i = 0 to v.len - 1 do
    let j = v.off + (i * v.stride) in
    if j < 0 || j >= Array.length v.data then ok := false
  done;
  !ok

(* a view of [len] elements over an array of [n]: (array 0 or 1, off,
   stride) *)
let view_gen n len =
  let open QCheck.Gen in
  (* stride 1, the fabric's, half the time *)
  let fits s = (len - 1) * abs s <= n - 1 in
  let* stride =
    frequency
      [ (5, return 1); (5, oneofl (List.filter fits [ -2; -1; 0; 1; 2; 3 ])) ]
  in
  let stride = if fits stride then stride else 0 in
  let span = (len - 1) * abs stride in
  let* off =
    if len = 0 then int_range 0 n
    else if stride >= 0 then int_range 0 (n - 1 - span)
    else int_range span (n - 1)
  in
  let* arr = int_range 0 1 in
  return (arr, off, stride)

type kernel_case = {
  kc_kernel : kernel;
  kc_k : float;
  kc_n : int;
  kc_init : float array * float array;
  kc_len : int;
  kc_views : (int * int * int) array;  (** a, b, dst *)
  kc_break : int;  (** 0 none, 1 every length + 1, 2 a negative offset *)
  kc_victim : int;  (** the view whose offset turns negative *)
}

let kernel_case_gen =
  let open QCheck.Gen in
  let value = oneof [ float_range (-50.0) 50.0; return 0.0; return 1.0 ] in
  let* kc_kernel = oneofl kernels in
  let* kc_k = value in
  let* kc_n = int_range 1 16 in
  let* x = array_size (return kc_n) value in
  let* y = array_size (return kc_n) value in
  let* kc_len = int_range 0 kc_n in
  let* a = view_gen kc_n kc_len in
  let* b = view_gen kc_n kc_len in
  let* dst = view_gen kc_n kc_len in
  let* alias = int_range 0 3 in
  let* shift = int_range (-3) 3 in
  let dst =
    match alias with
    | 0 -> a
    | 1 ->
        (* [b] shifted, where the shifted view still fits *)
        let arr, off, stride = b in
        let moved = (arr, off + shift, stride) in
        let _, o, s = moved in
        let inside i = o + (i * s) >= 0 && o + (i * s) < kc_n in
        if kc_len = 0 || (inside 0 && inside (kc_len - 1)) then moved else dst
    | _ -> dst
  in
  let* kc_break = oneofl [ 0; 0; 0; 0; 1; 2 ] in
  let* kc_victim = int_range 0 2 in
  return
    { kc_kernel; kc_k; kc_n; kc_init = (x, y); kc_len; kc_views = [| a; b; dst |];
      kc_break; kc_victim }

let print_kernel_case c =
  let kname = function
    | Fill -> "fill"
    | Blit -> "blit"
    | Fmac -> "fmac"
    | Arith _ -> "arith"
    | Arith_scalar _ -> "arith_scalar"
    | Scalar_arith _ -> "scalar_arith"
  in
  Printf.sprintf "%s k=%g n=%d len=%d break=%d victim=%d views=%s" (kname c.kc_kernel)
    c.kc_k c.kc_n c.kc_len c.kc_break c.kc_victim
    (String.concat " "
       (Array.to_list
          (Array.map (fun (r, o, s) -> Printf.sprintf "(%d,%d,%d)" r o s) c.kc_views)))

let bits_equal x y =
  Array.for_all2 (fun p q -> Int64.equal (Int64.bits_of_float p) (Int64.bits_of_float q)) x y

let prop_bufview_kernels_differential =
  QCheck.Test.make ~name:"kernels = per-element reference" ~count:5000
    (QCheck.make ~print:print_kernel_case kernel_case_gen)
    (fun c ->
      (* the same views over a fresh copy of the two arrays *)
      let views () =
        let x, y = c.kc_init in
        let arrs = [| Array.copy x; Array.copy y |] in
        let v i =
          let arr, off, stride = c.kc_views.(i) in
          let v = { Bufview.data = arrs.(arr); off; len = c.kc_len; stride } in
          match c.kc_break with
          | 1 -> { v with len = v.len + 1 }
          | 2 when i = c.kc_victim -> { v with off = -1 - off }
          | _ -> v
        in
        (arrs, v 0, v 1, v 2)
      in
      let arrs, a, b, dst = views () in
      let used =
        match c.kc_kernel with
        | Fill -> [ dst ]
        | Blit | Arith_scalar _ -> [ a; dst ]
        | Scalar_arith _ -> [ b; dst ]
        | Arith _ | Fmac -> [ a; b; dst ]
      in
      if List.for_all view_inside used then begin
        let rarrs, ra, rb, rdst = views () in
        reference_kernel c.kc_kernel ~k:c.kc_k ra rb rdst;
        run_kernel c.kc_kernel ~k:c.kc_k a b dst;
        bits_equal arrs.(0) rarrs.(0) && bits_equal arrs.(1) rarrs.(1)
      end
      else
        match run_kernel c.kc_kernel ~k:c.kc_k a b dst with
        | () -> false
        | exception Invalid_argument _ ->
            let x, y = c.kc_init in
            bits_equal arrs.(0) x && bits_equal arrs.(1) y)

(* The fused promoted-coefficient reduction against the delivery it
   replaces: fill the receive buffer with 0.0, then accumulate one term
   after the other, a lost term skipped and a damaged one read with its
   noise.  The fused side edits the term list as the fabric does: a lost
   term is dropped, a damaged one reads a chunk-sized copy that carries
   the noise.  Zero to nine terms over two backing columns (so terms
   alias and overlap), values and coefficients that include -0.0, NaN
   and infinities, and a receive buffer longer than the chunk.  In a
   sixth of the cases one term starts out of range: the kernel must
   raise [Invalid_argument] before it writes. *)
type edit = Clean | Lost | Damaged of int * float

type sum_case = {
  sc_cols : float array array;
  sc_dst : float array;
  sc_len : int;
  sc_terms : (float * int * int * edit) list;  (** coeff, column, start, edit *)
  sc_bad : int option;  (** the term moved out of range, if any *)
}

let sum_case_gen =
  let open QCheck.Gen in
  let value =
    frequency
      [
        (6, float_range (-50.0) 50.0);
        (1, oneofl [ 0.0; -0.0; Float.nan; Float.infinity; Float.neg_infinity; 1.0 ]);
      ]
  in
  let* sc_len = int_range 0 8 in
  let* sc_cols = array_size (return 2) (array_size (int_range sc_len (sc_len + 6)) value) in
  let* sc_dst = array_size (int_range sc_len (sc_len + 4)) value in
  let term =
    let* k = value in
    let* c = int_range 0 1 in
    let* start = int_range 0 (Array.length sc_cols.(c) - sc_len) in
    let* edit =
      if sc_len = 0 then return Clean
      else
        frequency
          [
            (6, return Clean);
            (1, return Lost);
            (1, map2 (fun i n -> Damaged (i, n)) (int_range 0 (sc_len - 1)) value);
          ]
    in
    return (k, c, start, edit)
  in
  let* n = int_range 0 9 in
  let* sc_terms = list_repeat n term in
  let* bad = int_range 0 5 in
  let* victim = int_range 0 (max 0 (n - 1)) in
  let sc_bad = if bad = 0 && n > 0 && sc_len > 0 then Some victim else None in
  return { sc_cols; sc_dst; sc_len; sc_terms; sc_bad }

let print_sum_case c =
  let edit = function
    | Clean -> "clean"
    | Lost -> "lost"
    | Damaged (i, n) -> Printf.sprintf "damaged(%d,%h)" i n
  in
  Printf.sprintf "len=%d dst=%d cols=%d,%d bad=%s terms=[%s]" c.sc_len
    (Array.length c.sc_dst) (Array.length c.sc_cols.(0)) (Array.length c.sc_cols.(1))
    (match c.sc_bad with Some i -> string_of_int i | None -> "-")
    (String.concat "; "
       (List.map
          (fun (k, col, s, e) -> Printf.sprintf "%h*c%d@%d %s" k col s (edit e))
          c.sc_terms))

let prop_scaled_sum_differential =
  QCheck.Test.make ~name:"scaled_sum_into = fill then accumulate" ~count:5000
    (QCheck.make ~print:print_sum_case sum_case_gen)
    (fun c ->
      let len = c.sc_len in
      let cols = Array.map Array.copy c.sc_cols and dst = Array.copy c.sc_dst in
      let run terms =
        let arr f = Array.of_list (List.map f terms) in
        Bufview.scaled_sum_into
          ~coeffs:(arr (fun (k, _, _) -> k))
          ~cols:(arr (fun (_, col, _) -> col))
          ~starts:(arr (fun (_, _, s) -> s))
          ~terms:(List.length terms) ~len dst
      in
      match c.sc_bad with
      | Some bad -> (
          (* the bad term starts before its column, or one element too
             late for it *)
          let terms =
            List.mapi
              (fun i (k, col, s, _) ->
                let s =
                  if i <> bad then s
                  else if s = 0 then -1
                  else Array.length cols.(col) - len + 1
                in
                (k, cols.(col), s))
              c.sc_terms
          in
          match run terms with
          | () -> false
          | exception Invalid_argument _ -> bits_equal dst c.sc_dst)
      | None ->
          run
            (List.filter_map
               (fun (k, col, s, e) ->
                 match e with
                 | Lost -> None
                 | Clean -> Some (k, cols.(col), s)
                 | Damaged (i, noise) ->
                     let d = Array.sub cols.(col) s len in
                     d.(i) <- d.(i) +. noise;
                     Some (k, d, 0))
               c.sc_terms);
          let expect = Array.make (Array.length dst) 0.0 in
          List.iter
            (fun (k, col, s, e) ->
              let col = c.sc_cols.(col) in
              for z = 0 to len - 1 do
                match e with
                | Lost -> ()
                | Clean -> expect.(z) <- expect.(z) +. (k *. col.(s + z))
                | Damaged (i, noise) ->
                    let v = col.(s + z) in
                    let v = if z = i then v +. noise else v in
                    expect.(z) <- expect.(z) +. (k *. v)
              done)
            c.sc_terms;
          bits_equal dst expect)

let () =
  Alcotest.run "properties"
    [
      ( "pipeline",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_pipeline_end_to_end;
            prop_pipeline_end_to_end_wse2;
            prop_pack_mode_end_to_end;
            prop_interp_oracle_after_each_stage;
          ] );
      ( "printer-parser",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_typ_roundtrip;
            prop_attr_roundtrip;
            prop_fuzz_module_roundtrip;
            prop_fuzz_module_roundtrip_lowered;
          ] );
      ( "bufview",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_bufview_sub_aliases;
            prop_bufview_fmac;
            prop_bufview_inplace_accumulate;
            prop_bufview_strided;
            prop_bufview_bounds_checked;
            prop_bufview_kernels_differential;
            prop_scaled_sum_differential;
          ] );
    ]
