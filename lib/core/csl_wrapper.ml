(** The [csl_wrapper] dialect (paper §4.2).

    CSL compilation is staged: a layout metaprogram places and
    parameterizes per-PE programs.  [csl_wrapper.module] packages
    program-wide parameters, the layout region and the program region;
    it is domain-agnostic but is populated with stencil-specific
    parameters by the wrapping pass. *)

open Wsc_ir.Ir
module Verifier = Wsc_ir.Verifier

type params = {
  width : int;  (** PE grid width *)
  height : int;  (** PE grid height *)
  z_dim : int;  (** elements per PE column (with halo) *)
  pattern : int;  (** stencil radius + 1, the comm pattern extent *)
  num_chunks : int;
  chunk_size : int;
  program_name : string;
}

let params_attr (p : params) : attr =
  Dict_attr
    [
      ("width", Int_attr p.width);
      ("height", Int_attr p.height);
      ("z_dim", Int_attr p.z_dim);
      ("pattern", Int_attr p.pattern);
      ("num_chunks", Int_attr p.num_chunks);
      ("chunk_size", Int_attr p.chunk_size);
      ("program_name", String_attr p.program_name);
    ]

let params_of_attr = function
  | Dict_attr d ->
      let geti k =
        match List.assoc_opt k d with
        | Some (Int_attr i) -> i
        | _ -> invalid_arg ("csl_wrapper: missing int param " ^ k)
      in
      let gets k =
        match List.assoc_opt k d with
        | Some (String_attr s) -> s
        | _ -> invalid_arg ("csl_wrapper: missing string param " ^ k)
      in
      {
        width = geti "width";
        height = geti "height";
        z_dim = geti "z_dim";
        pattern = geti "pattern";
        num_chunks = geti "num_chunks";
        chunk_size = geti "chunk_size";
        program_name = gets "program_name";
      }
  | _ -> invalid_arg "csl_wrapper: params must be a dict"

(** [module_ ~params ~layout ~program]: region 0 controls layout across
    the WSE, region 1 holds the PE program. *)
let module_ ~(params : params) ~(layout : region) ~(program : region) : op =
  create_op "csl_wrapper.module" ~results:[]
    ~attrs:[ ("params", params_attr params) ]
    ~regions:[ layout; program ]

let is_module op = op.opname = "csl_wrapper.module"

let params_of (op : op) : params = params_of_attr (attr_exn op "params")

let layout_region (op : op) : region = List.nth op.regions 0
let program_region (op : op) : region = List.nth op.regions 1

let () =
  Verifier.register "csl_wrapper.module" (fun op ->
      if List.length op.regions <> 2 then
        Verifier.fail "csl_wrapper.module: layout and program regions required";
      ignore (params_of op))
