(** Group 1 transformations (paper §5.1).

    [distribute-stencil] decomposes x/y across the 2-D PE grid (one
    column per PE) and inserts [dmp.swap] halo exchanges before every
    apply, narrowing the z range to the columns actually read remotely.

    [tensorize-z] converts the 3-D grid of scalars into a 2-D grid of
    z-column tensors: accesses gain explicit slices for their z offset,
    scalar constants become dense splats, arithmetic becomes
    rank-polymorphic; [z_halo] / [z_interior] attrs record the column
    layout for the later groups. *)

exception Distribute_error of string

val distribute : Wsc_ir.Ir.op -> Wsc_ir.Ir.op
val distribute_pass : Wsc_ir.Pass.t

val tensorize_pass : Wsc_ir.Pass.t
