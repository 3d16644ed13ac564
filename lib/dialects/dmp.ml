(** The [dmp] (distributed-memory parallelism) dialect.

    [dmp.swap] marks the halo exchanges that must complete before a
    [stencil.apply] can run.  The [distribute-stencil] pass inserts these
    with a 2D grid-slice strategy describing the PE topology (paper §5.1,
    Listing 3). *)

open Wsc_ir.Ir
module Verifier = Wsc_ir.Verifier

type direction = North | South | East | West

let direction_to_string = function
  | North -> "north"
  | South -> "south"
  | East -> "east"
  | West -> "west"

let direction_of_string = function
  | "north" -> North
  | "south" -> South
  | "east" -> East
  | "west" -> West
  | s -> invalid_arg ("dmp: bad direction " ^ s)

let all_directions = [ North; South; East; West ]

(** The grid offset of the neighbour in [dir]: North is +y and East is
    +x, for PEs and wafers alike.  The one place a direction meets an
    offset. *)
let vector = function
  | North -> (0, 1)
  | South -> (0, -1)
  | East -> (1, 0)
  | West -> (-1, 0)

(** One halo exchange: receive [depth] cells from [dir], restricted in the
    z dimension to [z_lo, z_hi) (needed-columns-only optimization §6.1). *)
type swap_desc = { dir : direction; depth : int; z_lo : int; z_hi : int }

let swap_attr (swaps : swap_desc list) : attr =
  Array_attr
    (List.map
       (fun s ->
         Dict_attr
           [
             ("dir", String_attr (direction_to_string s.dir));
             ("depth", Int_attr s.depth);
             ("z_lo", Int_attr s.z_lo);
             ("z_hi", Int_attr s.z_hi);
           ])
       swaps)

let swaps_of_attr = function
  | Array_attr l ->
      List.map
        (function
          | Dict_attr d ->
              let geti k =
                match List.assoc k d with
                | Int_attr i -> i
                | _ -> invalid_arg "dmp.swap: bad swap attr"
              in
              let dir =
                match List.assoc "dir" d with
                | String_attr s -> direction_of_string s
                | _ -> invalid_arg "dmp.swap: bad dir"
              in
              { dir; depth = geti "depth"; z_lo = geti "z_lo"; z_hi = geti "z_hi" }
          | _ -> invalid_arg "dmp.swap: bad swap attr")
        l
  | _ -> invalid_arg "dmp.swap: swaps must be an array"

(** [swap input ~topology ~swaps] — exchange halos of [input] over a
    [w × h] PE grid. *)
let swap (input : value) ~(topology : int * int) ~(swaps : swap_desc list) : op =
  let w, h = topology in
  create_op "dmp.swap" ~operands:[ input ] ~results:[ input.vtyp ]
    ~attrs:
      [
        ("topo", Dense_ints [ w; h ]);
        ("strategy", String_attr "grid_slice_2d");
        ("swaps", swap_attr swaps);
      ]

let topology (op : op) : int * int =
  match dense_ints_exn op "topo" with
  | [ w; h ] -> (w, h)
  | _ -> invalid_arg "dmp.swap: bad topo"

let swaps (op : op) : swap_desc list = swaps_of_attr (attr_exn op "swaps")

(** Scalar elements received per exchange, summed over the descriptors:
    each contributes [depth] cell rows restricted to [z_hi - z_lo]
    columns. *)
let sum_volume (swaps : swap_desc list) : int =
  List.fold_left (fun acc s -> acc + (s.depth * (s.z_hi - s.z_lo))) 0 swaps

(** Total number of scalar elements exchanged per PE per swap. *)
let exchange_volume (op : op) : int = sum_volume (swaps op)

(** [wafer_swap input ~topology ~swaps] — the same grid-slice halo
    exchange lifted one level up: [topology] is a [wx × wy] grid of
    wafers and the descriptors name inter-wafer (not inter-PE)
    exchanges.  The multiwafer decomposition pass emits these; volumes
    and z-restriction reuse the intra-wafer machinery unchanged. *)
let wafer_swap (input : value) ~(topology : int * int)
    ~(swaps : swap_desc list) : op =
  let w, h = topology in
  create_op "dmp.wafer_swap" ~operands:[ input ] ~results:[ input.vtyp ]
    ~attrs:
      [
        ("topo", Dense_ints [ w; h ]);
        ("strategy", String_attr "wafer_grid_slice_2d");
        ("swaps", swap_attr swaps);
      ]

let swap_like_verifier (name : string) (op : op) : unit =
  if List.length op.operands <> 1 || List.length op.results <> 1 then
    Verifier.fail "%s: exactly one operand and one result" name;
  ignore (topology op);
  ignore (swaps op)

let () =
  Verifier.register "dmp.swap" (swap_like_verifier "dmp.swap");
  Verifier.register "dmp.wafer_swap" (swap_like_verifier "dmp.wafer_swap")
