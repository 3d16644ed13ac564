(** CSL source printer (paper §4.3): emits CSL code from csl-ir.

    The csl dialect re-implements the subset of CSL the pipeline targets,
    so printing is a direct, local mapping: modules become [.csl] files,
    [csl.func]/[csl.task] become [fn]/[task] definitions, DSD ops become
    [@get_dsd]/[@increment_dsd_offset]/…, and the arithmetic builtins
    print as [@fadds]/[@fmacs]/….  The layout module prints as the
    metaprogram with its placement loop nest; the runtime communication
    library (§5.6) is emitted alongside the program. *)

open Wsc_ir.Ir

exception Print_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Print_error s)) fmt

type file = { filename : string; contents : string }

(** {1 Value naming} *)

type penv = {
  buf : Buffer.t;
  names : (int, string) Hashtbl.t;
  mutable next : int;
  mutable indent : int;
}

let new_penv () =
  { buf = Buffer.create 4096; names = Hashtbl.create 64; next = 0; indent = 0 }

let name_of env (v : value) : string =
  match Hashtbl.find_opt env.names v.vid with
  | Some n -> n
  | None -> fail "csl printer: value %%%d has no name" v.vid

let fresh env (v : value) (prefix : string) : string =
  let n = Printf.sprintf "%s%d" prefix env.next in
  env.next <- env.next + 1;
  Hashtbl.replace env.names v.vid n;
  n

let set_name env (v : value) (n : string) = Hashtbl.replace env.names v.vid n

let line env fmt =
  Printf.ksprintf
    (fun s ->
      Buffer.add_string env.buf (String.make (env.indent * 2) ' ');
      Buffer.add_string env.buf s;
      Buffer.add_char env.buf '\n')
    fmt

let float_lit f =
  if Float.is_integer f && Float.abs f < 1e9 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.9g" f

(** {1 Statement printing} *)

let rec print_block (env : penv) (blk : block) : unit =
  List.iter (print_op env) blk.bops

and print_op (env : penv) (o : op) : unit =
  match o.opname with
  | "csl.get_global" -> set_name env (result o) (string_attr_exn o "gname")
  | "csl.deref_ptr" -> set_name env (result o) (string_attr_exn o "gname")
  | "csl.load_scalar" -> set_name env (result o) (string_attr_exn o "gname")
  | "csl.store_scalar" ->
      line env "%s = %s;" (string_attr_exn o "gname") (name_of env (operand o 0))
  | "csl.get_mem_dsd" ->
      let base = name_of env (operand o 0) in
      let n = fresh env (result o) "dsd" in
      let len = int_attr_exn o "length" in
      let off = int_attr_exn o "offset" in
      if off = 0 then
        line env "var %s = @get_dsd(mem1d_dsd, .{ .tensor_access = |i|{%d} -> %s[i] });"
          n len base
      else
        line env
          "var %s = @get_dsd(mem1d_dsd, .{ .tensor_access = |i|{%d} -> %s[i + %d] });"
          n len base off
  | "csl.increment_dsd_offset" ->
      let base = name_of env (operand o 0) in
      let n = fresh env (result o) "dsd" in
      let by =
        match (int_attr o "by", o.operands) with
        | Some k, _ -> string_of_int k
        | None, [ _; v ] -> name_of env v
        | _ -> fail "increment_dsd_offset: no offset"
      in
      line env "var %s = @increment_dsd_offset(%s, %s, f32);" n base by
  | "csl.set_dsd_length" ->
      let base = name_of env (operand o 0) in
      let n = fresh env (result o) "dsd" in
      line env "var %s = @set_dsd_length(%s, %d);" n base (int_attr_exn o "length")
  | "csl.set_dsd_base_addr" ->
      let base = name_of env (operand o 0) in
      let addr = name_of env (operand o 1) in
      let n = fresh env (result o) "dsd" in
      line env "var %s = @set_dsd_base_addr(%s, &%s);" n base addr
  | "csl.fadds" | "csl.fsubs" | "csl.fmuls" | "csl.fmovs" ->
      let builtin = "@" ^ String.sub o.opname 4 (String.length o.opname - 4) in
      line env "%s(%s);" builtin
        (String.concat ", " (List.map (name_of env) o.operands))
  | "csl.fmacs" ->
      line env "@fmacs(%s);"
        (String.concat ", " (List.map (name_of env) o.operands))
  | "arith.constant" -> (
      match attr o "value" with
      | Some (Float_attr f) -> set_name env (result o) (float_lit f)
      | Some (Int_attr i) -> set_name env (result o) (string_of_int i)
      | _ -> fail "constant without value")
  | "arith.addi" ->
      let n = fresh env (result o) "v" in
      line env "const %s = %s + %s;" n
        (name_of env (operand o 0))
        (name_of env (operand o 1))
  | "arith.cmpi" ->
      let n = fresh env (result o) "v" in
      let opstr =
        match string_attr_exn o "predicate" with
        | "slt" -> "<"
        | "sle" -> "<="
        | "sgt" -> ">"
        | "sge" -> ">="
        | "eq" -> "=="
        | "ne" -> "!="
        | p -> fail "cmpi %s" p
      in
      line env "const %s = %s %s %s;" n
        (name_of env (operand o 0))
        opstr
        (name_of env (operand o 1))
  | "scf.if" ->
      line env "if (%s) {" (name_of env (operand o 0));
      env.indent <- env.indent + 1;
      print_block env (entry_block (region o 0));
      env.indent <- env.indent - 1;
      let else_blk = entry_block (region o 1) in
      if else_blk.bops <> [] then begin
        line env "} else {";
        env.indent <- env.indent + 1;
        print_block env else_blk;
        env.indent <- env.indent - 1
      end;
      line env "}"
  | "csl.call" -> line env "%s();" (string_attr_exn o "callee")
  | "csl.activate" ->
      line env "@activate(%s_id);" (string_attr_exn o "task")
  | "csl.assign_ptrs" ->
      let dests = Csl.string_list_attr o "dests" in
      let srcs = Csl.string_list_attr o "srcs" in
      List.iteri
        (fun i (d, s) ->
          ignore i;
          line env "const old_%s = %s;" d s)
        (List.combine dests srcs);
      List.iter (fun d -> line env "%s = old_%s;" d d) dests
  | "csl.member_call" -> (
      match string_attr_exn o "field" with
      | "communicate" ->
          let cfg = attr_exn o "config" in
          let dict = match cfg with Dict_attr d -> d | _ -> [] in
          let gets k =
            match List.assoc_opt k dict with
            | Some (String_attr s) -> s
            | _ -> "?"
          in
          let geti k =
            match List.assoc_opt k dict with Some (Int_attr i) -> i | _ -> 0
          in
          line env
            "comms.communicate(.{ .apply = %d, .z_base = %d, .nz = %d, .num_chunks = \
             %d, .chunk_size = %d, .chunk_cb = &%s, .done_cb = &%s });"
            (geti "apply_id") (geti "z_base") (geti "nz") (geti "num_chunks")
            (geti "chunk_size") (gets "chunk_cb") (gets "done_cb")
      | f -> fail "member_call %s" f)
  | "csl.unblock_cmd_stream" -> line env "sys_mod.unblock_cmd_stream();"
  | "csl.return" -> ()
  | name -> fail "csl printer: unsupported op %s" name

(** {1 Top-level printing} *)

let type_str = function
  | I16 -> "i16"
  | I32 -> "i32"
  | F32 -> "f32"
  | t -> fail "csl printer: unsupported param type %s" (Wsc_ir.Printer.typ_to_string t)

let print_func (env : penv) (o : op) : unit =
  let name = string_attr_exn o "sym_name" in
  let blk = entry_block (List.hd o.regions) in
  let args =
    List.mapi
      (fun i (a : value) ->
        let an = Printf.sprintf "arg%d" i in
        set_name env a an;
        Printf.sprintf "%s: %s" an (type_str a.vtyp))
      blk.bargs
  in
  line env "fn %s(%s) void {" name (String.concat ", " args);
  env.indent <- env.indent + 1;
  print_block env blk;
  env.indent <- env.indent - 1;
  line env "}";
  line env ""

let print_task (env : penv) (o : op) : unit =
  let name = string_attr_exn o "sym_name" in
  line env "task %s() void {" name;
  env.indent <- env.indent + 1;
  print_block env (entry_block (List.hd o.regions));
  env.indent <- env.indent - 1;
  line env "}";
  line env ""

(** Emit a program module as CSL source. *)
let print_program (program : op) : string =
  let env = new_penv () in
  let name = string_attr_exn program "sym_name" in
  line env "// %s.csl — generated by the wsc stencil pipeline" name;
  line env "param width: u16;";
  line env "param height: u16;";
  line env "param z_dim: u16;";
  line env "param pattern: u16;";
  line env "param num_chunks: u16;";
  line env "param chunk_size: u16;";
  line env "";
  let tasks = ref [] in
  List.iter
    (fun o ->
      match o.opname with
      | "csl.import_module" ->
          let m = string_attr_exn o "module" in
          let var =
            if m = "<memcpy/memcpy>" then "sys_mod"
            else if m = "stencil_comms" then "comms"
            else "mod"
          in
          set_name env (result o) var;
          if m = "stencil_comms" then
            line env
              "const %s = @import_module(\"%s.csl\", .{ .width = width, .height = \
               height, .pattern = pattern, .chunk_size = chunk_size });"
              var m
          else line env "const %s = @import_module(\"%s\");" var m
      | "csl.global_buffer" ->
          let n = string_attr_exn o "sym_name" in
          let size =
            match attr_exn o "type" with
            | Type_attr t -> num_elements t
            | _ -> 0
          in
          line env "var %s = @zeros([%d]f32);" n size
      | "csl.global_scalar" ->
          let n = string_attr_exn o "sym_name" in
          let init = match attr o "init" with Some (Int_attr i) -> i | _ -> 0 in
          line env "var %s: i32 = %d;" n init
      | "csl.ptr_global" ->
          line env "var %s: [*]f32 = &%s;" (string_attr_exn o "sym_name")
            (string_attr_exn o "target")
      | "csl.func" ->
          line env "";
          print_func env o;
          tasks := !tasks
      | "csl.task" ->
          line env "";
          print_task env o;
          tasks := !tasks @ [ (string_attr_exn o "sym_name", int_attr_exn o "id") ]
      | "csl.export" -> ()
      | name -> fail "csl printer: unexpected top-level op %s" name)
    (Csl.module_body program);
  line env "comptime {";
  env.indent <- env.indent + 1;
  List.iter
    (fun (t, id) ->
      line env "const %s_id = @get_local_task_id(%d);" t id;
      line env "@bind_local_task(%s, %s_id);" t t)
    !tasks;
  List.iter
    (fun o ->
      if o.opname = "csl.export" then
        line env "@export_symbol(%s);" (string_attr_exn o "name"))
    (Csl.module_body program);
  env.indent <- env.indent - 1;
  line env "}";
  Buffer.contents env.buf

(** Emit the layout metaprogram as CSL source: the placement loop nest the
    wrapper's layout region abstracts (paper §4.2). *)
let print_layout (layout : op) : string =
  let env = new_penv () in
  let name = string_attr_exn layout "sym_name" in
  line env "// %s.csl — generated layout metaprogram" name;
  List.iter
    (fun o ->
      match o.opname with
      | "csl.set_rectangle" ->
          line env "param width: u16 = %d;" (int_attr_exn o "width");
          line env "param height: u16 = %d;" (int_attr_exn o "height")
      | _ -> ())
    (Csl.module_body layout);
  line env "layout {";
  env.indent <- env.indent + 1;
  List.iter
    (fun o ->
      match o.opname with
      | "csl.set_rectangle" ->
          line env "@set_rectangle(width, height);"
      | "csl.place_pes" ->
          let file = string_attr_exn o "file" in
          let params =
            match attr_exn o "params" with
            | Dict_attr d ->
                String.concat ", "
                  (List.map
                     (fun (k, v) ->
                       match v with
                       | Int_attr i -> Printf.sprintf ".%s = %d" k i
                       | String_attr s -> Printf.sprintf ".%s = \"%s\"" k s
                       | _ -> Printf.sprintf ".%s = ?" k)
                     d)
            | _ -> ""
          in
          line env "for (@range(u16, width)) |x| {";
          env.indent <- env.indent + 1;
          line env "for (@range(u16, height)) |y| {";
          env.indent <- env.indent + 1;
          line env "@set_tile_code(x, y, \"%s\", .{ %s });" file params;
          env.indent <- env.indent - 1;
          line env "}";
          env.indent <- env.indent - 1;
          line env "}"
      | "csl.export" ->
          line env "@export_name(\"%s\", fn () void);" (string_attr_exn o "name")
      | name -> fail "layout printer: unexpected op %s" name)
    (Csl.module_body layout);
  env.indent <- env.indent - 1;
  line env "}";
  Buffer.contents env.buf

(** All files for a compiled module. *)
let print_files (compiled : op) : file list =
  match Wsc_dialects.Builtin.body compiled with
  | [ layout; program ] ->
      let pname = string_attr_exn program "sym_name" in
      let lname = string_attr_exn layout "sym_name" in
      [
        { filename = lname ^ ".csl"; contents = print_layout layout };
        { filename = pname ^ ".csl"; contents = print_program program };
        { filename = "stencil_comms.csl"; contents = Comms_csl.source };
      ]
  | _ -> fail "expected layout + program modules"

(** Non-empty source lines (the paper's LoC metric). *)
let loc_of (s : string) : int =
  List.length
    (List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' s))
