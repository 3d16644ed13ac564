(** Sequential reference interpreter.

    Executes modules built from the [func]/[scf]/[arith]/[stencil]/[tensor]/
    [varith]/[dmp] dialects with the mathematical (single-address-space)
    semantics the paper starts from.  It is the correctness oracle: the
    compiled WSE program, executed on the fabric simulator, must produce
    point-wise identical grids.

    Execution is staged: [run_func] first resolves every op of a function
    into a closure over the slots of a per-call frame (opnames, attributes
    and static bounds are read once), then runs the closures.  Scalar
    [stencil.apply] bodies are further staged over {!Bufview} views and
    run one strip of an innermost (z) row at a time, each access a view
    into its input grid at one linear offset. *)

open Wsc_ir.Ir

type grid = { gbounds : (int * int) list; gelt : typ; gdata : float array }
(** A stencil grid: bounds per dimension, flattened row-major data.  When
    [gelt] is a tensor (after tensorization), the innermost tensor extent
    is folded into the flattened layout. *)

type rtvalue =
  | Rfloat of float
  | Rint of int
  | Rgrid of grid
  | Rtensor of float array

exception Interp_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Interp_error s)) fmt

(** {1 Grid helpers} *)

let tensor_extent (elt : typ) : int =
  match elt with Tensor ([ n ], _) -> n | Tensor _ -> fail "grid: bad tensor elt" | _ -> 1

let grid_total_size (bounds : (int * int) list) (elt : typ) : int =
  List.fold_left (fun acc (lb, ub) -> acc * (ub - lb)) 1 bounds * tensor_extent elt

let make_grid (bounds : (int * int) list) (elt : typ) : grid =
  { gbounds = bounds; gelt = elt; gdata = Array.make (grid_total_size bounds elt) 0.0 }

let grid_of_typ = function
  | Temp (b, e) | Field (b, e) -> make_grid b e
  | t -> fail "not a grid type: %s" (Wsc_ir.Printer.typ_to_string t)

let out_of_range i lb ub = fail "grid index %d out of [%d,%d)" i lb ub

(** Flattened index of the point [pt + off] (absolute coordinates). *)
let index_at g (pt : int array) (off : int array) : int =
  let rank = Array.length pt in
  let rec go d bounds acc =
    match bounds with
    | [] -> if d <> rank then fail "grid index rank mismatch" else acc
    | (lb, ub) :: bs ->
        if d >= rank then fail "grid index rank mismatch";
        let i = pt.(d) + off.(d) in
        if i < lb || i >= ub then out_of_range i lb ub;
        go (d + 1) bs ((acc * (ub - lb)) + (i - lb))
  in
  go 0 g.gbounds 0

(** Flattened index of point [idx] (absolute coordinates within bounds). *)
let flat_index g (idx : int list) : int =
  let pt = Array.of_list idx in
  index_at g pt (Array.make (Array.length pt) 0)

(** The element (scalar or z-column copy) at flat point index [i]. *)
let get_elem g (i : int) : rtvalue =
  let z = tensor_extent g.gelt in
  if z = 1 then Rfloat g.gdata.(i) else Rtensor (Array.sub g.gdata (i * z) z)

let set_elem g (i : int) (v : rtvalue) : unit =
  let z = tensor_extent g.gelt in
  match v with
  | Rfloat f when z = 1 -> g.gdata.(i) <- f
  | Rtensor a when Array.length a = z -> Array.blit a 0 g.gdata (i * z) z
  | Rfloat _ -> fail "grid_set: scalar into tensor grid"
  | Rtensor a -> fail "grid_set: tensor size %d, grid elt %d" (Array.length a) z
  | _ -> fail "grid_set: bad value"

(** Read the element (scalar or z-column tensor) at point [idx]. *)
let grid_get g idx : rtvalue = get_elem g (flat_index g idx)

let grid_set g idx (v : rtvalue) : unit = set_elem g (flat_index g idx) v
let copy_grid g = { g with gdata = Array.copy g.gdata }

(** Visit every point of [bounds] in row-major order, writing it into
    [pt] before each call. *)
let iter_box (bounds : (int * int) list) (pt : int array) (f : unit -> unit) : unit =
  let b = Array.of_list bounds in
  let n = Array.length b in
  let rec go d =
    if d = n then f ()
    else
      let lb, ub = b.(d) in
      for i = lb to ub - 1 do
        pt.(d) <- i;
        go (d + 1)
      done
  in
  go 0

(** Row-major strides of a grid's points (in elements of its flat data
    when the element is scalar). *)
let strides (bounds : (int * int) list) : int array =
  let b = Array.of_list bounds in
  let n = Array.length b in
  let s = Array.make n 1 in
  for d = n - 2 downto 0 do
    let lb, ub = b.(d + 1) in
    s.(d) <- s.(d + 1) * (ub - lb)
  done;
  s

let box_empty (bounds : (int * int) list) = List.exists (fun (lb, ub) -> ub <= lb) bounds

(** Fail unless the box [bounds] shifted by [off] lies inside [g]. *)
let check_box g (bounds : (int * int) list) (off : int array) : unit =
  if List.length g.gbounds <> List.length bounds then fail "grid index rank mismatch";
  List.iteri
    (fun d ((lb, ub), (glb, gub)) ->
      if lb + off.(d) < glb then out_of_range (lb + off.(d)) glb gub;
      if ub - 1 + off.(d) >= gub then out_of_range (ub - 1 + off.(d)) glb gub)
    (List.combine bounds g.gbounds)

(** {1 Values} *)

let as_float = function
  | Rfloat f -> f
  | Rint i -> float_of_int i
  | _ -> fail "expected scalar float"

let as_int = function
  | Rint i -> i
  | Rfloat f -> int_of_float f
  | _ -> fail "expected integer"

let as_grid = function Rgrid g -> g | _ -> fail "expected grid"
let as_tensor = function
  | Rtensor a -> a
  | Rfloat f -> [| f |]
  | _ -> fail "expected tensor"

(** Elementwise float operation, rank-polymorphic: tensors through
    {!Bufview}'s kernels into a fresh array. *)
let elementwise2 (op : Bufview.arith) (a : rtvalue) (b : rtvalue) : rtvalue =
  let v = Bufview.of_array in
  let fresh n kernel = let r = Array.make n 0.0 in kernel (v r); Rtensor r in
  match (a, b) with
  | Rfloat x, Rfloat y ->
      Rfloat (match op with Add -> x +. y | Sub -> x -. y | Mul -> x *. y | Div -> x /. y)
  | Rtensor x, Rtensor y when Array.length x <> Array.length y ->
      fail "elementwise: tensor sizes %d vs %d" (Array.length x) (Array.length y)
  | Rtensor x, Rtensor y -> fresh (Array.length x) (Bufview.arith_into op (v x) (v y))
  | Rtensor x, Rfloat k ->
      let n = Array.length x in
      fresh n (Bufview.arith_into op (v x) (Bufview.repeat k n))
  | Rfloat k, Rtensor y ->
      let n = Array.length y in
      fresh n (Bufview.arith_into op (Bufview.repeat k n) (v y))
  | _ -> fail "elementwise: bad operands"

(** [stencil.store]: copy the source grid's whole box into the
    destination, one contiguous row at a time. *)
let store (src : grid) (dst : grid) : unit =
  let z = tensor_extent src.gelt and zd = tensor_extent dst.gelt in
  if not (box_empty src.gbounds) then begin
    check_box dst src.gbounds (Array.make (List.length src.gbounds) 0);
    if z <> zd then
      if zd > 1 && z = 1 then fail "grid_set: scalar into tensor grid"
      else fail "grid_set: tensor size %d, grid elt %d" z zd;
    if src.gbounds = dst.gbounds then Array.blit src.gdata 0 dst.gdata 0 (Array.length src.gdata)
    else begin
      let rank = List.length src.gbounds in
      let outer = List.filteri (fun d _ -> d < rank - 1) src.gbounds in
      let lb, ub = List.nth src.gbounds (rank - 1) in
      let pt = Array.make rank lb in
      let zero = Array.make rank 0 in
      iter_box outer pt (fun () ->
          Array.blit src.gdata
            (index_at src pt zero * z)
            dst.gdata
            (index_at dst pt zero * z)
            ((ub - lb) * z))
    end
  end

(** {1 Staging} *)

type frame = rtvalue array

type scope = {
  module_ : op;
  ext : ext option;
  funcs : (string, (rtvalue list -> rtvalue list) ref) Hashtbl.t;
      (** staged functions of this run, by name *)
  slots : (int, int) Hashtbl.t;  (** SSA value id -> frame slot *)
  nslots : int ref;
  point : int array option;  (** current point of the enclosing apply *)
}

and ext = scope -> op -> (frame -> rtvalue list) option

let slot sc (v : value) : int =
  match Hashtbl.find_opt sc.slots v.vid with
  | Some s -> s
  | None -> fail "unbound SSA value %%%d" v.vid

let def sc (v : value) : int =
  let s = !(sc.nslots) in
  incr sc.nslots;
  Hashtbl.replace sc.slots v.vid s;
  s

let read sc v =
  let s = slot sc v in
  fun (fr : frame) -> fr.(s)

let write sc v =
  let s = def sc v in
  fun (fr : frame) x -> fr.(s) <- x

(* Dirichlet semantics: each output grid starts as a copy of the first
   input grid when shapes agree; the body then overwrites the compute
   region. *)
let apply_outputs (first_input : rtvalue option) (result_types : typ list) : grid list =
  let elt_of = function Temp (_, e) | Field (_, e) -> e | t -> t in
  List.map
    (fun t ->
      match first_input with
      | Some (Rgrid g)
        when g.gbounds = bounds_of t && tensor_extent g.gelt = tensor_extent (elt_of t) ->
          copy_grid g
      | _ -> grid_of_typ t)
    result_types

(** {2 Scalar apply bodies} *)

(* [dst <- args.(0) op args.(1) op ...], left to right, over float slots;
   a single argument is copied *)
type finstr = { dst : int; op : Bufview.arith; args : int array }

(* A scalar body runs on one strip of an innermost row at a time, as one
   {!Bufview.t} per float slot.  A window slides along a grid's row: an
   access's view, read in place on its source grid, and a result's, on
   its output grid, which the instruction computing it writes directly.
   Every other slot owns a buffer as wide as a strip. *)
type scalar_body = {
  nf : int;  (** float slots *)
  sources : int array;  (** frame slots of the accessed grids *)
  windows : (int * int * int array) array;
      (** float slot, grid (the sources, then the outputs), offset *)
  buffers : int array;  (** the float slots that own a buffer *)
  consts : (int * float) list;
  imports : (int * int) list;  (** frame slot -> float slot, read per execution *)
  instrs : finstr array;
}

exception Not_scalar

let is_float = function F16 | F32 | F64 -> true | _ -> false

(* Stage an apply body whose every value is a scalar float, or None. *)
let stage_scalar_body sc (o : op) (body : block) (rank : int) : scalar_body option =
  let fslots = Hashtbl.create 16 and nf = ref 0 in
  let newf (v : value) =
    if not (is_float v.vtyp) then raise Not_scalar;
    let s = !nf in
    incr nf;
    Hashtbl.replace fslots v.vid s;
    s
  in
  let args = List.combine (List.map (fun (v : value) -> v.vid) body.bargs) o.operands in
  let imports = ref [] and sources = ref [] in
  (* slot of a value defined outside the body *)
  let outer (v : value) =
    match Hashtbl.find_opt sc.slots v.vid with Some s -> s | None -> raise Not_scalar
  in
  let operand_f (v : value) =
    match Hashtbl.find_opt fslots v.vid with
    | Some s -> s
    | None ->
        if List.mem_assoc v.vid args then raise Not_scalar;
        let outer = outer v in
        let s = newf v in
        imports := (outer, s) :: !imports;
        s
  in
  let source (v : value) =
    let outer =
      match List.assoc_opt v.vid args with Some input -> slot sc input | None -> outer v
    in
    let rec find i = function
      | [] ->
          sources := !sources @ [ outer ];
          i
      | s :: rest -> if s = outer then i else find (i + 1) rest
    in
    find 0 !sources
  in
  let arith_of = function
    | "arith.addf" | "varith.add" -> Bufview.Add
    | "arith.subf" -> Bufview.Sub
    | "arith.mulf" | "varith.mul" -> Bufview.Mul
    | _ -> Bufview.Div
  in
  let consts = ref [] and accesses = ref [] and instrs = ref [] and rets = ref None in
  match
    List.iter
      (fun (o : op) ->
        match o.opname with
        | "arith.constant" -> (
            match attr o "value" with
            | Some (Float_attr f) -> consts := (newf (result o), f) :: !consts
            | Some (Int_attr i) -> consts := (newf (result o), float_of_int i) :: !consts
            | _ -> raise Not_scalar)
        | "arith.addf" | "arith.subf" | "arith.mulf" | "arith.divf" | "varith.add" | "varith.mul"
          ->
            if o.operands = [] then raise Not_scalar;
            let args = Array.of_list (List.map operand_f o.operands) in
            instrs := { dst = newf (result o); op = arith_of o.opname; args } :: !instrs
        | "stencil.access" ->
            let off = Array.of_list (dense_ints_exn o "offset") in
            if Array.length off <> rank then raise Not_scalar;
            let s = source (operand o 0) in
            accesses := (newf (result o), s, off) :: !accesses
        | "stencil.return" -> rets := Some (Array.of_list (List.map operand_f o.operands))
        | _ -> raise Not_scalar)
      body.bops
  with
  | exception Not_scalar -> None
  | () -> (
      match !rets with
      | Some rets when Array.length rets = List.length o.results && rank > 0 ->
          let nsrc = List.length !sources and zero = Array.make rank 0 and n0 = !nf in
          let computed = Array.make n0 false and window = Array.make (n0 + Array.length rets) false in
          List.iter (fun i -> computed.(i.dst) <- true) !instrs;
          List.iter (fun (d, _, _) -> window.(d) <- true) !accesses;
          (* the instruction computing a result writes it into its output;
             any other result (an access, a constant, an import, a repeat)
             gets a copying instruction of its own *)
          let result j d =
            let d =
              if computed.(d) && not window.(d) then d
              else (instrs := { dst = !nf; op = Add; args = [| d |] } :: !instrs; incr nf; !nf - 1)
            in
            window.(d) <- true;
            (d, nsrc + j, zero)
          in
          let results = List.mapi result (Array.to_list rets) in
          Some
            {
              nf = !nf;
              sources = Array.of_list !sources;
              windows = Array.of_list (List.rev_append !accesses results);
              buffers = Array.of_list (List.filter (fun d -> not window.(d)) (List.init !nf Fun.id));
              consts = !consts;
              imports = !imports;
              instrs = Array.of_list (List.rev !instrs);
            }
      | _ -> None)

(* Width of the strips each innermost row is cut into: every buffer holds
   at most [strip] points, so a body's buffers do not grow with the row. *)
let strip = 128

(* Run a staged scalar body over the compute bounds [cb] into [outs],
   one strip of an innermost row at a time: each instruction runs over
   the whole strip into its view, every point through the same float ops
   in the same order as a point-at-a-time loop.  The outputs are fresh
   grids no access reads, so neither the visiting order nor writing a
   result in place can change a value.  Returns false, having done
   nothing, when the frame's grids or imports are not scalar; the
   generic path then runs instead. *)
let run_scalar_body (b : scalar_body) (cb : (int * int) list) (fr : frame) (outs : grid list) :
    bool =
  let rank = List.length cb in
  let scalar_grid g = tensor_extent g.gelt = 1 && List.length g.gbounds = rank in
  let srcs =
    Array.map
      (fun s -> match fr.(s) with Rgrid g when scalar_grid g -> Some g | _ -> None)
      b.sources
  in
  if
    Array.exists Option.is_none srcs
    || (not (List.for_all scalar_grid outs))
    || List.exists (fun (s, _) -> match fr.(s) with Rfloat _ -> false | _ -> true) b.imports
  then false
  else if box_empty cb then true
  else begin
    (* the accesses in body order, then every output at offset zero *)
    let grids = Array.append (Array.map Option.get srcs) (Array.of_list outs) in
    Array.iter (fun (_, g, off) -> check_box grids.(g) cb off) b.windows;
    let str = Array.map (fun g -> strides g.gbounds) grids in
    let lo = Array.of_list (List.map fst cb) in
    let lb_last, ub_last = List.nth cb (rank - 1) in
    let width = min strip (ub_last - lb_last) in
    (* every entry is replaced: each view is a buffer or a window *)
    let views = Array.make b.nf (Bufview.of_array [||]) in
    Array.iter (fun v -> views.(v) <- Bufview.of_array (Array.make width 0.0)) b.buffers;
    List.iter (fun (s, f) -> Bufview.fill views.(s) f) b.consts;
    List.iter (fun (outer, s) -> Bufview.fill views.(s) (as_float fr.(outer))) b.imports;
    (* each window's flat index at the box's first point *)
    let first =
      Array.map
        (fun (v, g, off) ->
          views.(v) <- { Bufview.data = grids.(g).gdata; off = 0; len = width; stride = 1 };
          let k = ref 0 in
          List.iteri
            (fun d (glb, _) -> k := !k + ((lo.(d) + off.(d) - glb) * str.(g).(d)))
            grids.(g).gbounds;
          !k)
        b.windows
    in
    let nwin = Array.length b.windows and len = ref width and pt = Array.make rank 0 in
    iter_box
      (List.filteri (fun d _ -> d < rank - 1) cb)
      pt
      (fun () ->
        (* each window at its row's first strip *)
        for i = 0 to nwin - 1 do
          let v, g, _ = b.windows.(i) in
          let k = ref first.(i) in
          for d = 0 to rank - 2 do
            k := !k + ((pt.(d) - lo.(d)) * str.(g).(d))
          done;
          views.(v).off <- !k
        done;
        let z = ref lb_last in
        while !z < ub_last do
          let n = min width (ub_last - !z) in
          if n <> !len then begin
            for v = 0 to b.nf - 1 do
              views.(v).len <- n
            done;
            len := n
          end;
          for k = 0 to Array.length b.instrs - 1 do
            match b.instrs.(k) with
            | { dst = d; args = [| x |]; _ } -> Bufview.blit ~src:views.(x) ~dst:views.(d)
            | { dst = d; op; args } ->
                Bufview.arith_into op views.(args.(0)) views.(args.(1)) views.(d);
                for i = 2 to Array.length args - 1 do
                  Bufview.arith_into op views.(d) views.(args.(i)) views.(d)
                done
          done;
          for i = 0 to nwin - 1 do
            let v, _, _ = b.windows.(i) in
            views.(v).off <- views.(v).off + n
          done;
          z := !z + n
        done);
    true
  end

(** {2 Ops} *)

type staged_op = Op of (frame -> unit) | Term of int array

let results1 sc (o : op) (f : frame -> rtvalue) : staged_op =
  let d = def sc (result o) in
  Op (fun fr -> fr.(d) <- f fr)

let results sc (o : op) (f : frame -> rtvalue list) : staged_op =
  let ds = List.map (def sc) o.results in
  Op (fun fr -> List.iter2 (fun d v -> fr.(d) <- v) ds (f fr))

let rec stage_block sc (b : block) : frame -> rtvalue list =
  let code = ref [] and term = ref [||] in
  List.iter
    (fun o -> match stage_op sc o with Op c -> code := c :: !code | Term t -> term := t)
    b.bops;
  let code = Array.of_list (List.rev !code) and term = !term in
  fun fr ->
    for i = 0 to Array.length code - 1 do
      code.(i) fr
    done;
    Array.fold_right (fun s acc -> fr.(s) :: acc) term []

and stage_op sc (o : op) : staged_op =
  let s i = slot sc (operand o i) in
  let fbin op =
    let a = s 0 and b = s 1 in
    results1 sc o (fun fr -> elementwise2 op fr.(a) fr.(b))
  in
  let ibin f =
    let a = s 0 and b = s 1 in
    results1 sc o (fun fr -> Rint (f (as_int fr.(a)) (as_int fr.(b))))
  in
  let fvar op =
    let xs = Array.of_list (List.map (slot sc) o.operands) in
    if Array.length xs = 0 then fail "%s: no operands" o.opname;
    let v = Bufview.of_array in
    results1 sc o (fun fr ->
        (* from the second operand on, a tensor accumulator is a fresh
           array of this op's own [elementwise2], so it is added into *)
        let acc = ref fr.(xs.(0)) in
        for i = 1 to Array.length xs - 1 do
          match (!acc, fr.(xs.(i))) with
          | Rtensor r, Rtensor y when i > 1 && Array.length y = Array.length r ->
              Bufview.arith_into op (v r) (v y) (v r)
          | Rtensor r, Rfloat k when i > 1 ->
              Bufview.arith_into op (v r) (Bufview.repeat k (Array.length r)) (v r)
          | a, b -> acc := elementwise2 op a b
        done;
        !acc)
  in
  match o.opname with
  | "arith.constant" -> (
      match (attr o "value", (result o).vtyp) with
      | Some (Float_attr f), Tensor ([ n ], _) ->
          results1 sc o (fun _ -> Rtensor (Array.make n f))
      | Some (Float_attr f), _ -> results1 sc o (fun _ -> Rfloat f)
      | Some (Int_attr i), (Index | I16 | I32 | I64) -> results1 sc o (fun _ -> Rint i)
      | Some (Int_attr i), _ -> results1 sc o (fun _ -> Rfloat (float_of_int i))
      | _ -> fail "arith.constant: bad value")
  | "arith.addf" -> fbin Add
  | "arith.subf" -> fbin Sub
  | "arith.mulf" -> fbin Mul
  | "arith.divf" -> fbin Div
  | "arith.addi" -> ibin ( + )
  | "arith.subi" -> ibin ( - )
  | "arith.muli" -> ibin ( * )
  | "arith.cmpi" ->
      let cmp : int -> int -> bool =
        match string_attr_exn o "predicate" with
        | "slt" -> ( < )
        | "sle" -> ( <= )
        | "sgt" -> ( > )
        | "sge" -> ( >= )
        | "eq" -> ( = )
        | "ne" -> ( <> )
        | p -> fail "cmpi: bad predicate %s" p
      in
      ibin (fun a b -> if cmp a b then 1 else 0)
  | "varith.add" -> fvar Add
  | "varith.mul" -> fvar Mul
  | "tensor.empty" ->
      let n = match (result o).vtyp with Tensor ([ n ], _) -> n | _ -> 0 in
      results1 sc o (fun _ -> Rtensor (Array.make n 0.0))
  | "memref.alloc" ->
      (* buffers at function level are zero-initialized flat arrays *)
      let n = num_elements (result o).vtyp in
      results1 sc o (fun _ -> Rtensor (Array.make n 0.0))
  | "tensor.extract_slice" ->
      let a = s 0 and off = int_attr_exn o "offset" and size = int_attr_exn o "size" in
      results1 sc o (fun fr -> Rtensor (Array.sub (as_tensor fr.(a)) off size))
  | "tensor.insert_slice" ->
      let a = s 0 and b = s 1 and c = s 2 in
      results1 sc o (fun fr ->
          let src = as_tensor fr.(a) in
          let dst = Array.copy (as_tensor fr.(b)) in
          Array.blit src 0 dst (as_int fr.(c)) (Array.length src);
          Rtensor dst)
  | "stencil.load" ->
      let a = s 0 in
      results1 sc o (fun fr ->
          match fr.(a) with
          | Rgrid g -> Rgrid g
          | _ -> fail "stencil.load: operand is not a grid")
  | "stencil.store" ->
      let a = s 0 and b = s 1 in
      Op (fun fr -> store (as_grid fr.(a)) (as_grid fr.(b)))
  | "dmp.swap" ->
      (* halo exchange is the identity in single-address-space semantics *)
      let a = s 0 in
      results1 sc o (fun fr -> fr.(a))
  | "stencil.apply" -> results sc o (stage_apply sc o)
  | "stencil.access" | "csl_stencil.access" ->
      let pt =
        match sc.point with Some p -> p | None -> fail "%s outside an apply body" o.opname
      in
      let off = Array.of_list (dense_ints_exn o "offset") in
      if Array.length off <> Array.length pt then
        fail "stencil.access: offset rank %d at point rank %d" (Array.length off)
          (Array.length pt);
      let a = s 0 in
      results1 sc o (fun fr ->
          let g = as_grid fr.(a) in
          get_elem g (index_at g pt off))
  | "stencil.return" | "scf.yield" | "func.return" | "csl_stencil.yield" ->
      Term (Array.of_list (List.map (slot sc) o.operands))
  | "scf.for" ->
      let lb = s 0 and ub = s 1 and step = s 2 in
      let inits = List.map (slot sc) (Scf.for_iter_inits o) in
      let body = Scf.for_body o in
      let iv = def sc (List.hd body.bargs) in
      let carried_args = List.map (def sc) (List.tl body.bargs) in
      let run = stage_block sc body in
      results sc o (fun fr ->
          let ub = as_int fr.(ub) and step = as_int fr.(step) in
          let carried = ref (List.map (fun s -> fr.(s)) inits) in
          let i = ref (as_int fr.(lb)) in
          while !i < ub do
            fr.(iv) <- Rint !i;
            List.iter2 (fun a v -> fr.(a) <- v) carried_args !carried;
            carried := run fr;
            i := !i + step
          done;
          !carried)
  | "scf.if" ->
      let c = s 0 in
      let branches =
        Array.of_list (List.map (fun r -> stage_block sc (entry_block r)) o.regions)
      in
      results sc o (fun fr ->
          let b = if as_int fr.(c) <> 0 then 0 else 1 in
          if b >= Array.length branches then fail "scf.if: no region %d" b;
          branches.(b) fr)
  | "func.call" ->
      let callee = string_attr_exn o "callee" in
      if Func.lookup sc.module_ callee = None then fail "func.call: unknown function %s" callee;
      let f = stage_func sc callee in
      let args = List.map (slot sc) o.operands in
      results sc o (fun fr -> !f (List.map (fun s -> fr.(s)) args))
  | name -> (
      match Option.bind sc.ext (fun ext -> ext sc o) with
      | Some f -> results sc o f
      | None -> fail "interpreter: unsupported op %s" name)

(* [stencil.apply]: the scalar staging when the body qualifies and the
   grids are scalar, else the body's generic staging, point by point. *)
and stage_apply sc (o : op) : frame -> rtvalue list =
  let body = Stencil.apply_body o in
  let cb = Stencil.compute_bounds o in
  let rank = List.length cb in
  let inputs = List.map (slot sc) o.operands in
  let scalar = stage_scalar_body sc o body rank in
  let pt = Array.make rank 0 in
  let bsc = { sc with point = Some pt } in
  let args = List.map (def bsc) body.bargs in
  let run = stage_block bsc body in
  let result_types = List.map (fun (r : value) -> r.vtyp) o.results in
  let zero = Array.make rank 0 in
  fun fr ->
    let vals = List.map (fun s -> fr.(s)) inputs in
    let outs = apply_outputs (List.nth_opt vals 0) result_types in
    (match scalar with
    | Some b when run_scalar_body b cb fr outs -> ()
    | _ ->
        List.iter2 (fun a v -> fr.(a) <- v) args vals;
        iter_box cb pt (fun () ->
            List.iter2 (fun g v -> set_elem g (index_at g pt zero) v) outs (run fr)));
    List.map (fun g -> Rgrid g) outs

and stage_func sc (name : string) : (rtvalue list -> rtvalue list) ref =
  match Hashtbl.find_opt sc.funcs name with
  | Some f -> f
  | None ->
      let f =
        match Func.lookup sc.module_ name with Some f -> f | None -> fail "no function %s" name
      in
      let staged = ref (fun _ -> fail "call %s: not staged" name) in
      Hashtbl.replace sc.funcs name staged;
      let fsc = { sc with slots = Hashtbl.create 64; nslots = ref 0; point = None } in
      let entry = Func.entry f in
      let params = List.map (def fsc) entry.bargs in
      let run = stage_block fsc entry in
      staged :=
        (fun args ->
          if List.length params <> List.length args then fail "call %s: arity mismatch" name;
          let fr = Array.make !(fsc.nslots) (Rint 0) in
          List.iter2 (fun p a -> fr.(p) <- a) params args;
          run fr);
      staged

let stage_block sc ~(point : int array) (b : block) = stage_block { sc with point = Some point } b

(* The stager [run_func] uses when called without [~ext]. *)
let default_ext : ext option Atomic.t = Atomic.make None
let set_default_ext (e : ext) = Atomic.set default_ext (Some e)

(** Run function [name] of module [m] on [args]. *)
let run_func ?ext (m : op) ~(name : string) (args : rtvalue list) : rtvalue list =
  let ext = match ext with Some _ -> ext | None -> Atomic.get default_ext in
  let sc =
    {
      module_ = m;
      ext;
      funcs = Hashtbl.create 8;
      slots = Hashtbl.create 1;
      nslots = ref 0;
      point = None;
    }
  in
  !(stage_func sc name) args

(** {1 Grid initialization and comparison helpers} *)

(** Deterministic pseudo-random-ish init so reference and simulated runs
    agree: value depends only on the point coordinates. *)
let init_of_hash h = float_of_int (((h mod 1000) + 1000) mod 1000) /. 997.0

let init_table = Array.init 1000 init_of_hash

let init_value (idx : int list) : float =
  init_of_hash (List.fold_left (fun acc i -> (acc * 31) + i + 17) 7 idx)

(** Fill [g] with [init_value] of every point; a z-column element is
    initialized as the points [p @ [k]]. *)
let init_grid (g : grid) : unit =
  let z = tensor_extent g.gelt in
  let dims = Array.of_list (if z = 1 then g.gbounds else g.gbounds @ [ (0, z) ]) in
  let n = Array.length dims and pos = ref 0 in
  let rec go d h =
    let lb, ub = dims.(d) in
    if d = n - 1 then begin
      (* the row is [init_of_hash] of consecutive integers: successive
         residues mod 1000, so runs of the table *)
      let r = ref (((((h * 31) + lb + 17) mod 1000) + 1000) mod 1000) in
      let left = ref (ub - lb) in
      while !left > 0 do
        let k = min !left (1000 - !r) in
        Array.blit init_table !r g.gdata !pos k;
        pos := !pos + k;
        left := !left - k;
        r := 0
      done
    end
    else
      for i = lb to ub - 1 do
        go (d + 1) ((h * 31) + i + 17)
      done
  in
  if n = 0 then g.gdata.(0) <- init_of_hash 7 else go 0 7

(** Reinterpret a 3-D scalar grid as the corresponding 2-D grid of
    z-column tensors (identical flattened layout) — used to feed the same
    initial data to a module before and after tensorization.  It shares
    [g]'s data: every caller hands over a grid it no longer writes. *)
let retensorize_grid (g : grid) : grid =
  match g.gbounds with
  | [ bx; by; (zl, zu) ] ->
      { gbounds = [ bx; by ]; gelt = Tensor ([ zu - zl ], F32); gdata = g.gdata }
  | _ -> fail "retensorize_grid: grid is not 3-D scalar"

let max_abs_diff (a : grid) (b : grid) : float =
  let n = Array.length a.gdata in
  if n <> Array.length b.gdata then infinity
  else begin
    (* an unboxed accumulator; [Float.max] keeps a NaN difference *)
    let m = ref 0.0 in
    for i = 0 to n - 1 do
      m := Float.max !m (Float.abs (a.gdata.(i) -. b.gdata.(i)))
    done;
    !m
  end

let max_abs_diff_list (a : grid list) (b : grid list) : float =
  List.fold_left Float.max 0.0 (List.map2 max_abs_diff a b)
