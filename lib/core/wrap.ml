(** csl-stencil-wrap (paper §5.2): package the program into a
    [csl_wrapper.module], extracting program-wide parameters from the
    [csl_stencil.apply] ops — PE grid extents, column height, pattern
    (stencil radius + 1), chunking — which the staged CSL compilation
    needs in the layout metaprogram. *)

open Wsc_ir.Ir
module Dmp = Wsc_dialects.Dmp

exception Wrap_error of string

(** Parameters derived from the module's [csl_stencil.apply] ops.
    @raise Wrap_error when the module has none. *)
let program_params ?(name = "stencil_program") (m : op) : Csl_wrapper.params =
  let applies = find_ops_by_name "csl_stencil.apply" m in
  match applies with
  | [] -> raise (Wrap_error "no csl_stencil.apply in module")
  | first :: _ ->
      let cfg = Csl_stencil.config_of first in
      let w, h = cfg.topology in
      let z_halo = int_attr_exn first "z_halo" in
      let nz = int_attr_exn first "z_interior" in
      let radius =
        List.fold_left
          (fun r a ->
            let c = Csl_stencil.config_of a in
            List.fold_left
              (fun r (s : Dmp.swap_desc) -> max r s.depth)
              r
              (List.concat c.swaps))
          1 applies
      in
      let num_chunks =
        List.fold_left (fun n a -> max n (Csl_stencil.config_of a).num_chunks) 1 applies
      in
      {
        Csl_wrapper.width = w;
        height = h;
        z_dim = nz + (2 * z_halo);
        pattern = radius + 1;
        num_chunks;
        chunk_size = cfg.chunk_size;
        program_name = name;
      }

let run ?name (m : op) : op =
  let params = program_params ?name m in
  let layout = new_region [ new_block [] ] in
  (* the program region takes over the module's body *)
  let program = List.hd m.regions in
  Csl_wrapper.module_ ~params ~layout ~program

let pass ?name () = Wsc_ir.Pass.make "csl-stencil-wrap" (run ?name)
