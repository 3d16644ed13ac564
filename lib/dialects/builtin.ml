(** The [builtin] dialect: module container op. *)

open Wsc_ir.Ir

let module_name = "builtin.module"

(** Create a [builtin.module] holding [ops] in a single block. *)
let module_op (ops : op list) : op =
  create_op module_name ~results:[] ~regions:[ new_region [ new_block ops ] ]

(** Top-level ops of a module. *)
let body (m : op) : op list = (entry_block (List.hd m.regions)).bops

let set_body (m : op) (ops : op list) : unit =
  (entry_block (List.hd m.regions)).bops <- ops

let () =
  Wsc_ir.Verifier.register module_name (fun op ->
      if op.operands <> [] || op.results <> [] then
        Wsc_ir.Verifier.fail "builtin.module takes no operands/results";
      if List.length op.regions <> 1 then
        Wsc_ir.Verifier.fail "builtin.module must have exactly one region")
