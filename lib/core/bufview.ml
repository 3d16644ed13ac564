(** Buffer views: the runtime representation shared by the bufferized-IR
    evaluator and the fabric simulator's DSD execution.

    A view aliases a slice of a backing array — exactly what a memref
    subview or a mem1d DSD denotes on a PE. *)

type t = { data : float array; off : int; len : int; stride : int }

let of_array (a : float array) : t =
  { data = a; off = 0; len = Array.length a; stride = 1 }

let make (a : float array) ~off ~len ?(stride = 1) () : t =
  if off < 0 || (len > 0 && off + ((len - 1) * stride) >= Array.length a) then
    invalid_arg
      (Printf.sprintf "Bufview: [%d, +%d x%d) out of array of %d" off len stride
         (Array.length a));
  { data = a; off; len; stride }

let sub (v : t) ~off ~len : t =
  make v.data ~off:(v.off + (off * v.stride)) ~len ~stride:v.stride ()

let get (v : t) i = v.data.(v.off + (i * v.stride))
let set (v : t) i x = v.data.(v.off + (i * v.stride)) <- x

(* The element loops below index [data] directly instead of calling
   [get]/[set]: built with [-opaque] (dune's dev profile) those calls are
   not inlined, and every element read through one boxes a float. *)

let fill (v : t) x =
  let d = v.data in
  for i = 0 to v.len - 1 do
    d.(v.off + (i * v.stride)) <- x
  done

let to_array (v : t) : float array = Array.init v.len (get v)

let blit ~(src : t) ~(dst : t) : unit =
  if src.len <> dst.len then invalid_arg "Bufview.blit: length mismatch";
  let s = src.data and d = dst.data in
  for i = 0 to src.len - 1 do
    d.(dst.off + (i * dst.stride)) <- s.(src.off + (i * src.stride))
  done

type arith = Add | Sub | Mul | Div

(* One loop per operator keeps the operator a primitive, so the element
   values stay unboxed. *)
let arith_into (op : arith) (a : t) (b : t) (dst : t) : unit =
  if a.len <> dst.len || b.len <> dst.len then
    invalid_arg "Bufview.arith_into: length mismatch";
  let ad = a.data and bd = b.data and dd = dst.data in
  let ai i = a.off + (i * a.stride)
  and bi i = b.off + (i * b.stride)
  and di i = dst.off + (i * dst.stride) in
  let n = dst.len - 1 in
  match op with
  | Add -> for i = 0 to n do dd.(di i) <- ad.(ai i) +. bd.(bi i) done
  | Sub -> for i = 0 to n do dd.(di i) <- ad.(ai i) -. bd.(bi i) done
  | Mul -> for i = 0 to n do dd.(di i) <- ad.(ai i) *. bd.(bi i) done
  | Div -> for i = 0 to n do dd.(di i) <- ad.(ai i) /. bd.(bi i) done

let arith_scalar_into (op : arith) (a : t) (k : float) (dst : t) : unit =
  if a.len <> dst.len then invalid_arg "Bufview.arith_scalar_into: length mismatch";
  let ad = a.data and dd = dst.data in
  let ai i = a.off + (i * a.stride) and di i = dst.off + (i * dst.stride) in
  let n = dst.len - 1 in
  match op with
  | Add -> for i = 0 to n do dd.(di i) <- ad.(ai i) +. k done
  | Sub -> for i = 0 to n do dd.(di i) <- ad.(ai i) -. k done
  | Mul -> for i = 0 to n do dd.(di i) <- ad.(ai i) *. k done
  | Div -> for i = 0 to n do dd.(di i) <- ad.(ai i) /. k done

let scalar_arith_into (op : arith) (k : float) (b : t) (dst : t) : unit =
  if b.len <> dst.len then invalid_arg "Bufview.scalar_arith_into: length mismatch";
  let bd = b.data and dd = dst.data in
  let bi i = b.off + (i * b.stride) and di i = dst.off + (i * dst.stride) in
  let n = dst.len - 1 in
  match op with
  | Add -> for i = 0 to n do dd.(di i) <- k +. bd.(bi i) done
  | Sub -> for i = 0 to n do dd.(di i) <- k -. bd.(bi i) done
  | Mul -> for i = 0 to n do dd.(di i) <- k *. bd.(bi i) done
  | Div -> for i = 0 to n do dd.(di i) <- k /. bd.(bi i) done

(** Fused multiply-accumulate: [dst.(i) <- a.(i) + b.(i) * s]. *)
let fmac_into (a : t) (b : t) (s : float) (dst : t) : unit =
  if a.len <> dst.len || b.len <> dst.len then
    invalid_arg "Bufview.fmac_into: length mismatch";
  let ad = a.data and bd = b.data and dd = dst.data in
  for i = 0 to dst.len - 1 do
    dd.(dst.off + (i * dst.stride)) <-
      ad.(a.off + (i * a.stride)) +. (bd.(b.off + (i * b.stride)) *. s)
  done
