(** Buffer views: the runtime representation shared by the bufferized-IR
    evaluator and the fabric simulator's DSD execution.

    A view aliases a slice of a backing array — exactly what a memref
    subview or a mem1d DSD denotes on a PE. *)

type t = { data : float array; off : int; len : int; stride : int }

let of_array (a : float array) : t =
  { data = a; off = 0; len = Array.length a; stride = 1 }

(* Every kernel below checks each view once on entry, then indexes its
   [data] without a per-element bounds check.  The entry check covers
   views that never went through [make]: the fabric builds DSDs by record
   update ([Increment_dsd], [Set_dsd_length], [Set_dsd_base_addr]).  The
   loops index [data] directly instead of calling [get]/[set]: built with
   [-opaque] (dune's dev profile) those calls are not inlined, and every
   element read through one boxes a float.  Each index advances by its
   stride instead of being recomputed as [off + i * stride], which runs
   stride-1 views as fast as a loop written for stride 1.  Elements go in
   ascending order, so aliased and overlapping operands compute what a
   per-element loop does. *)

external uget : float array -> int -> float = "%array_unsafe_get"
external uset : float array -> int -> float -> unit = "%array_unsafe_set"

let out_of_range (name : string) (v : t) =
  invalid_arg
    (Printf.sprintf "Bufview.%s: [%d, +%d x%d) out of array of %d" name v.off v.len
       v.stride (Array.length v.data))

(* Raise unless every index a kernel touches, [v.off + i * v.stride] for
   [i] in [0, v.len), lies inside [v.data]: the first and the last index
   are the extremes for any stride. *)
let check (name : string) (v : t) : unit =
  if v.len > 0 then begin
    let last = v.off + ((v.len - 1) * v.stride) in
    if Int.min v.off last < 0 || Int.max v.off last >= Array.length v.data then
      out_of_range name v
  end

let make (a : float array) ~off ~len ?(stride = 1) () : t =
  let v = { data = a; off; len; stride } in
  if off < 0 then out_of_range "make" v;
  check "make" v;
  v

let sub (v : t) ~off ~len : t =
  make v.data ~off:(v.off + (off * v.stride)) ~len ~stride:v.stride ()

let get (v : t) i = v.data.(v.off + (i * v.stride))
let set (v : t) i x = v.data.(v.off + (i * v.stride)) <- x

let fill (v : t) x =
  check "fill" v;
  let d = v.data and s = v.stride in
  let di = ref v.off in
  for _ = 1 to v.len do
    uset d !di x;
    di := !di + s
  done

let to_array (v : t) : float array = Array.init v.len (get v)

let blit ~(src : t) ~(dst : t) : unit =
  if src.len <> dst.len then invalid_arg "Bufview.blit: length mismatch";
  check "blit" src;
  check "blit" dst;
  let s = src.data and ss = src.stride and d = dst.data and ds = dst.stride in
  let si = ref src.off and di = ref dst.off in
  for _ = 1 to dst.len do
    uset d !di (uget s !si);
    si := !si + ss;
    di := !di + ds
  done

type arith = Add | Sub | Mul | Div

(* One loop per operator keeps the operator a primitive, so the element
   values stay unboxed. *)
let arith_into (op : arith) (a : t) (b : t) (dst : t) : unit =
  if a.len <> dst.len || b.len <> dst.len then
    invalid_arg "Bufview.arith_into: length mismatch";
  check "arith_into" a;
  check "arith_into" b;
  check "arith_into" dst;
  let ad = a.data and sa = a.stride and bd = b.data and sb = b.stride in
  let dd = dst.data and sd = dst.stride in
  let ai = ref a.off and bi = ref b.off and di = ref dst.off in
  let n = dst.len in
  match op with
  | Add ->
      for _ = 1 to n do
        uset dd !di (uget ad !ai +. uget bd !bi);
        ai := !ai + sa; bi := !bi + sb; di := !di + sd
      done
  | Sub ->
      for _ = 1 to n do
        uset dd !di (uget ad !ai -. uget bd !bi);
        ai := !ai + sa; bi := !bi + sb; di := !di + sd
      done
  | Mul ->
      for _ = 1 to n do
        uset dd !di (uget ad !ai *. uget bd !bi);
        ai := !ai + sa; bi := !bi + sb; di := !di + sd
      done
  | Div ->
      for _ = 1 to n do
        uset dd !di (uget ad !ai /. uget bd !bi);
        ai := !ai + sa; bi := !bi + sb; di := !di + sd
      done

let arith_scalar_into (op : arith) (a : t) (k : float) (dst : t) : unit =
  if a.len <> dst.len then invalid_arg "Bufview.arith_scalar_into: length mismatch";
  check "arith_scalar_into" a;
  check "arith_scalar_into" dst;
  let ad = a.data and sa = a.stride and dd = dst.data and sd = dst.stride in
  let ai = ref a.off and di = ref dst.off in
  let n = dst.len in
  match op with
  | Add ->
      for _ = 1 to n do
        uset dd !di (uget ad !ai +. k);
        ai := !ai + sa; di := !di + sd
      done
  | Sub ->
      for _ = 1 to n do
        uset dd !di (uget ad !ai -. k);
        ai := !ai + sa; di := !di + sd
      done
  | Mul ->
      for _ = 1 to n do
        uset dd !di (uget ad !ai *. k);
        ai := !ai + sa; di := !di + sd
      done
  | Div ->
      for _ = 1 to n do
        uset dd !di (uget ad !ai /. k);
        ai := !ai + sa; di := !di + sd
      done

let scalar_arith_into (op : arith) (k : float) (b : t) (dst : t) : unit =
  if b.len <> dst.len then invalid_arg "Bufview.scalar_arith_into: length mismatch";
  check "scalar_arith_into" b;
  check "scalar_arith_into" dst;
  let bd = b.data and sb = b.stride and dd = dst.data and sd = dst.stride in
  let bi = ref b.off and di = ref dst.off in
  let n = dst.len in
  match op with
  | Add ->
      for _ = 1 to n do
        uset dd !di (k +. uget bd !bi);
        bi := !bi + sb; di := !di + sd
      done
  | Sub ->
      for _ = 1 to n do
        uset dd !di (k -. uget bd !bi);
        bi := !bi + sb; di := !di + sd
      done
  | Mul ->
      for _ = 1 to n do
        uset dd !di (k *. uget bd !bi);
        bi := !bi + sb; di := !di + sd
      done
  | Div ->
      for _ = 1 to n do
        uset dd !di (k /. uget bd !bi);
        bi := !bi + sb; di := !di + sd
      done

(** Fused multiply-accumulate: [dst.(i) <- a.(i) + b.(i) * s]. *)
let fmac_into (a : t) (b : t) (s : float) (dst : t) : unit =
  if a.len <> dst.len || b.len <> dst.len then
    invalid_arg "Bufview.fmac_into: length mismatch";
  check "fmac_into" a;
  check "fmac_into" b;
  check "fmac_into" dst;
  let ad = a.data and sa = a.stride and bd = b.data and sb = b.stride in
  let dd = dst.data and sd = dst.stride in
  let ai = ref a.off and bi = ref b.off and di = ref dst.off in
  for _ = 1 to dst.len do
    uset dd !di (uget ad !ai +. (uget bd !bi *. s));
    ai := !ai + sa;
    bi := !bi + sb;
    di := !di + sd
  done

(* The promoted-coefficient reduction of one receive buffer (paper §5.7):
   one pass writes up to four terms, so [dst] is read and written once per
   four terms instead of once per term.  Every term's range is checked
   before the first write.  The first pass starts each element from 0.0,
   the later ones from [dst], so every element sums its terms in the
   same order as a fill followed by one accumulate pass per term. *)
let scaled_sum_into ~(coeffs : float array) ~(cols : float array array)
    ~(starts : int array) ~(terms : int) ~(len : int) (dst : float array) : unit =
  if
    terms < 0
    || terms > Array.length coeffs
    || terms > Array.length cols
    || terms > Array.length starts
  then invalid_arg "Bufview.scaled_sum_into: more terms than entries";
  if len < 0 || len > Array.length dst then
    invalid_arg
      (Printf.sprintf "Bufview.scaled_sum_into: length %d out of array of %d" len
         (Array.length dst));
  for t = 0 to terms - 1 do
    let s = starts.(t) and n = Array.length cols.(t) in
    if s < 0 || s + len > n then
      invalid_arg
        (Printf.sprintf "Bufview.scaled_sum_into: term %d [%d, +%d) out of array of %d"
           t s len n)
  done;
  let t = ref 0 in
  while !t < terms do
    let i = !t and first = !t = 0 in
    let k0 = coeffs.(i) and c0 = cols.(i) and s0 = starts.(i) in
    match terms - i with
    | 1 ->
        for z = 0 to len - 1 do
          let acc = if first then 0.0 else uget dst z in
          uset dst z (acc +. (k0 *. uget c0 (s0 + z)))
        done;
        t := i + 1
    | 2 | 3 ->
        let k1 = coeffs.(i + 1) and c1 = cols.(i + 1) and s1 = starts.(i + 1) in
        for z = 0 to len - 1 do
          let acc = if first then 0.0 else uget dst z in
          uset dst z ((acc +. (k0 *. uget c0 (s0 + z))) +. (k1 *. uget c1 (s1 + z)))
        done;
        t := i + 2
    | _ ->
        let k1 = coeffs.(i + 1) and c1 = cols.(i + 1) and s1 = starts.(i + 1) in
        let k2 = coeffs.(i + 2) and c2 = cols.(i + 2) and s2 = starts.(i + 2) in
        let k3 = coeffs.(i + 3) and c3 = cols.(i + 3) and s3 = starts.(i + 3) in
        for z = 0 to len - 1 do
          let acc = if first then 0.0 else uget dst z in
          uset dst z
            ((((acc +. (k0 *. uget c0 (s0 + z))) +. (k1 *. uget c1 (s1 + z)))
             +. (k2 *. uget c2 (s2 + z)))
            +. (k3 *. uget c3 (s3 + z)))
        done;
        t := i + 4
  done;
  if terms = 0 then Array.fill dst 0 (Array.length dst) 0.0
  else Array.fill dst len (Array.length dst - len) 0.0
