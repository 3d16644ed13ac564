(** The [csl_stencil] dialect (paper §4.1).

    Makes the WSE-specific structure of a stencil explicit: which data is
    fetched from neighbours ([prefetch]), and how the computation splits
    into chunk-wise processing of received data versus computation on
    locally held data (the two regions of [apply]).

    [csl_stencil.apply] anatomy:
    - operands: the communicated input grids (2D temps of z-column
      tensors), then the accumulator init tensor, then any local-only
      input grids;
    - attrs: [topo] (PE grid), [swaps] (per-direction exchange
      descriptors, reusing the dmp encoding), [num_chunks], [chunk_size],
      [comm_count] (number of communicated inputs), and optionally
      [coeffs] — coefficients promoted into the communication layer
      (paper §5.7: multiply incoming data at zero overhead);
    - region 0 (receive_chunk): block args are one received-halo view per
      communicated input (a temp whose element is a chunk-sized tensor),
      the chunk z-offset (index), and the accumulator; executed once per
      chunk; must yield the updated accumulator;
    - region 1 (done): block args are the original inputs followed by the
      accumulator; executed once after all chunks arrived; yields the
      output column(s). *)

open Wsc_ir.Ir
module Verifier = Wsc_ir.Verifier
module Dmp = Wsc_dialects.Dmp

(** [prefetch] — transitional op produced when replacing [dmp.swap]: marks
    that [input]'s halo must be fetched into a local buffer.  Folded into
    the enclosing [apply] by the same pass group. *)
let prefetch (input : value) ~(topology : int * int) ~(swaps : Dmp.swap_desc list) :
    op =
  let w, h = topology in
  create_op "csl_stencil.prefetch" ~operands:[ input ] ~results:[ input.vtyp ]
    ~attrs:
      [
        ("topo", Dense_ints [ w; h ]);
        ("swaps", Dmp.swap_attr swaps);
      ]

type apply_config = {
  topology : int * int;
  swaps : Dmp.swap_desc list list;  (** per communicated input *)
  num_chunks : int;
  chunk_size : int;
  comm_count : int;  (** how many leading operands are communicated grids *)
  coeffs : (int * int * int * float) list;
      (** promoted coefficients: (input index, dx, dy, coefficient); empty
          when coefficient promotion does not apply.  The communication
          layer multiplies data arriving from PE offset (dx, dy) for
          communicated input [i] by the coefficient and reduces it into
          the per-direction staging buffer (paper §5.7). *)
}

let apply ~(config : apply_config) ~(comm_inputs : value list) ~(acc : value)
    ~(local_inputs : value list) ~(result_types : typ list)
    ~(recv_region : region) ~(done_region : region) : op =
  let w, h = config.topology in
  let attrs =
    [
      ("topo", Dense_ints [ w; h ]);
      ("swaps", Array_attr (List.map Dmp.swap_attr config.swaps));
      ("num_chunks", Int_attr config.num_chunks);
      ("chunk_size", Int_attr config.chunk_size);
      ("comm_count", Int_attr config.comm_count);
    ]
    @
    if config.coeffs = [] then []
    else
      [
        ( "coeffs",
          Array_attr
            (List.map
               (fun (i, dx, dy, c) ->
                 Dict_attr
                   [
                     ("i", Int_attr i);
                     ("dx", Int_attr dx);
                     ("dy", Int_attr dy);
                     ("c", Float_attr c);
                   ])
               config.coeffs) );
      ]
  in
  create_op "csl_stencil.apply"
    ~operands:((comm_inputs @ [ acc ]) @ local_inputs)
    ~results:result_types ~attrs
    ~regions:[ recv_region; done_region ]
    ~result_hints:(List.map (fun _ -> "out") result_types)

let config_of (op : op) : apply_config =
  let topology =
    match dense_ints_exn op "topo" with
    | [ w; h ] -> (w, h)
    | _ -> invalid_arg "csl_stencil.apply: bad topo"
  in
  let coeffs =
    match attr op "coeffs" with
    | Some (Array_attr l) ->
        List.map
          (function
            | Dict_attr d ->
                let geti k =
                  match List.assoc_opt k d with Some (Int_attr i) -> i | _ -> 0
                in
                let getf k =
                  match List.assoc_opt k d with
                  | Some (Float_attr f) -> f
                  | Some (Int_attr i) -> float_of_int i
                  | _ -> 0.0
                in
                (geti "i", geti "dx", geti "dy", getf "c")
            | _ -> invalid_arg "csl_stencil.apply: bad coeffs")
          l
    | _ -> []
  in
  let swaps =
    match attr_exn op "swaps" with
    | Array_attr l -> List.map Dmp.swaps_of_attr l
    | _ -> invalid_arg "csl_stencil.apply: bad swaps"
  in
  {
    topology;
    swaps;
    num_chunks = int_attr_exn op "num_chunks";
    chunk_size = int_attr_exn op "chunk_size";
    comm_count = int_attr_exn op "comm_count";
    coeffs;
  }

let acc_init (op : op) : value = List.nth op.operands (int_attr_exn op "comm_count")

let recv_region (op : op) : region = List.nth op.regions 0
let done_region (op : op) : region = List.nth op.regions 1

(** [access] — same shape as [stencil.access]; reads either the received
    buffer (inside region 0) or a local grid (inside region 1). *)
let access (source : value) ~(offset : int list) ~(result : typ) : op =
  create_op "csl_stencil.access" ~operands:[ source ] ~results:[ result ]
    ~attrs:[ ("offset", Dense_ints offset) ]

let yield (vals : value list) : op =
  create_op "csl_stencil.yield" ~operands:vals ~results:[]

let () =
  Verifier.register "csl_stencil.apply" (fun op ->
      let cfg = config_of op in
      if List.length op.regions <> 2 then
        Verifier.fail "csl_stencil.apply: exactly two regions required";
      if cfg.comm_count < 1 then
        Verifier.fail "csl_stencil.apply: at least one communicated input";
      if cfg.num_chunks < 1 then Verifier.fail "csl_stencil.apply: num_chunks >= 1";
      let recv = entry_block (recv_region op) in
      (* one rcv view per communicated input + offset + acc *)
      if List.length recv.bargs <> cfg.comm_count + 2 then
        Verifier.fail
          "csl_stencil.apply: recv region takes %d args, expected %d (rcv views + \
           offset + acc)"
          (List.length recv.bargs) (cfg.comm_count + 2);
      let done_ = entry_block (done_region op) in
      if List.length done_.bargs <> List.length op.operands then
        Verifier.fail
          "csl_stencil.apply: done region takes %d args, expected %d (operands)"
          (List.length done_.bargs)
          (List.length op.operands));
  Verifier.register_terminator "csl_stencil.apply" [ "csl_stencil.yield" ]
