(** Textual printer for the generic IR form.

    The syntax mirrors MLIR's generic operation form:
    [%0, %1 = "dialect.op"(%a, %b) ({ ... }) {attr = v} : (t) -> (t)]
    so that IR dumps read like the listings in the paper.  Everything is
    written into one [Buffer.t]; indentation is explicit padding. *)

open Ir

let add_escaped buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s

let add_int buf i =
  if i >= 0 && i < 100 then begin
    (* most shapes, bounds, offsets and value numbers *)
    if i >= 10 then Buffer.add_char buf (Char.unsafe_chr (48 + (i / 10)));
    Buffer.add_char buf (Char.unsafe_chr (48 + (i mod 10)))
  end
  else Buffer.add_string buf (string_of_int i)

(** [add_sep buf f l] writes the elements of [l] with [f], separated by
    [", "]. *)
let rec add_sep buf f = function
  | [] -> ()
  | [ x ] -> f x
  | x :: rest ->
      f x;
      Buffer.add_string buf ", ";
      add_sep buf f rest

(** Can [s] print unquoted as a single parser identifier token? *)
let bare_name (s : string) : bool =
  s <> ""
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (fun c ->
         match c with
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '$' | '-' -> true
         | _ -> false)
       s

let rec add_typ buf = function
  | F16 -> Buffer.add_string buf "f16"
  | F32 -> Buffer.add_string buf "f32"
  | F64 -> Buffer.add_string buf "f64"
  | I1 -> Buffer.add_string buf "i1"
  | I16 -> Buffer.add_string buf "i16"
  | I32 -> Buffer.add_string buf "i32"
  | I64 -> Buffer.add_string buf "i64"
  | Index -> Buffer.add_string buf "index"
  | Tensor (shape, e) -> add_shaped buf "tensor<" shape e
  | Memref (shape, e) -> add_shaped buf "memref<" shape e
  | Temp (bounds, e) -> add_bounded buf "!stencil.temp<" bounds e
  | Field (bounds, e) -> add_bounded buf "!stencil.field<" bounds e
  | Function (ins, outs) ->
      Buffer.add_char buf '(';
      add_typ_list buf ins;
      Buffer.add_string buf ") -> (";
      add_typ_list buf outs;
      Buffer.add_char buf ')'
  | Ptr (t, kind) ->
      Buffer.add_string buf "!csl.ptr<";
      add_typ buf t;
      Buffer.add_string buf
        (match kind with Ptr_single -> ", single>" | Ptr_many -> ", many>")
  | Dsd Mem1d -> Buffer.add_string buf "!csl.dsd<mem1d>"
  | Dsd Mem4d -> Buffer.add_string buf "!csl.dsd<mem4d>"
  | Dsd Fabin -> Buffer.add_string buf "!csl.dsd<fabin>"
  | Dsd Fabout -> Buffer.add_string buf "!csl.dsd<fabout>"
  | Color -> Buffer.add_string buf "!csl.color"
  | Struct s ->
      (* import-module structs carry names like "<memcpy/memcpy>" that
         are not identifier tokens; quote those so the type re-parses *)
      Buffer.add_string buf "!csl.struct<";
      if bare_name s then Buffer.add_string buf s
      else begin
        Buffer.add_char buf '"';
        add_escaped buf s;
        Buffer.add_char buf '"'
      end;
      Buffer.add_char buf '>'

and add_shaped buf opener shape e =
  Buffer.add_string buf opener;
  List.iter
    (fun d ->
      add_int buf d;
      Buffer.add_char buf 'x')
    shape;
  add_typ buf e;
  Buffer.add_char buf '>'

and add_bounded buf opener bounds e =
  Buffer.add_string buf opener;
  List.iter
    (fun (lb, ub) ->
      Buffer.add_char buf '[';
      add_int buf lb;
      Buffer.add_char buf ',';
      add_int buf ub;
      Buffer.add_string buf "]x")
    bounds;
  add_typ buf e;
  Buffer.add_char buf '>'

and add_typ_list buf ts = add_sep buf (add_typ buf) ts

let typ_to_string t =
  let buf = Buffer.create 32 in
  add_typ buf t;
  Buffer.contents buf

(* the C formatting that [Printf]'s "%g" ends in, without interpreting
   a format string per call *)
external format_float : string -> float -> string = "caml_format_float"

(** Integral floats below 1e15 print as "%.6f"; everything else as
    "%.17g", which is exact.  A "%.17g" of bare digits (an integral
    value in [1e15, 1e17)) gets a ".0" so it re-parses as a float, not
    an integer; infinities and NaN print as [inf], [-inf], [nan] and
    [-nan], which the parser reads back as floats. *)

let add_float buf f =
  if Float.is_integer f && Float.abs f < 1e15 then begin
    (* "%.6f" of an integral value: its digits and ".000000" *)
    if Float.sign_bit f then Buffer.add_char buf '-';
    add_int buf (Float.to_int (Float.abs f));
    Buffer.add_string buf ".000000"
  end
  else begin
    let s = format_float "%.17g" f in
    Buffer.add_string buf s;
    if String.for_all (fun c -> (c >= '0' && c <= '9') || c = '-') s then
      Buffer.add_string buf ".0"
  end

let rec add_attr buf = function
  | Unit_attr -> Buffer.add_string buf "unit"
  | Bool_attr b -> Buffer.add_string buf (if b then "true" else "false")
  | Int_attr i -> add_int buf i
  | Float_attr f -> add_float buf f
  | String_attr s ->
      Buffer.add_char buf '"';
      add_escaped buf s;
      Buffer.add_char buf '"'
  | Type_attr t -> add_typ buf t
  | Array_attr l ->
      Buffer.add_char buf '[';
      add_sep buf (add_attr buf) l;
      Buffer.add_char buf ']'
  | Dict_attr l ->
      Buffer.add_char buf '{';
      add_attr_entries buf l;
      Buffer.add_char buf '}'
  | Dense_ints l ->
      Buffer.add_string buf "dense_i[";
      add_sep buf (add_int buf) l;
      Buffer.add_char buf ']'
  | Dense_floats l ->
      Buffer.add_string buf "dense_f[";
      add_sep buf (add_float buf) l;
      Buffer.add_char buf ']'
  | Symbol_ref s ->
      Buffer.add_char buf '@';
      Buffer.add_string buf s

and add_attr_entries buf l =
  add_sep buf
    (fun (k, v) ->
      Buffer.add_string buf k;
      Buffer.add_string buf " = ";
      add_attr buf v)
    l

let attr_to_string a =
  let buf = Buffer.create 32 in
  add_attr buf a;
  Buffer.contents buf

(** Printing environment assigning stable names to values and blocks. *)
type env = {
  buf : Buffer.t;
  names : (int, int) Hashtbl.t;  (* value id -> number *)
  mutable next : int;
  block_names : (int, int) Hashtbl.t;
  mutable next_block : int;
}

let new_env () =
  {
    buf = Buffer.create 4096;
    names = Hashtbl.create 64;
    next = 0;
    block_names = Hashtbl.create 16;
    next_block = 0;
  }

let block_label env (b : Ir.block) =
  match Hashtbl.find_opt env.block_names b.Ir.bid with
  | Some n -> n
  | None ->
      let n = env.next_block in
      env.next_block <- n + 1;
      Hashtbl.replace env.block_names b.Ir.bid n;
      n

let hint_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
  | _ -> false

(** Hints come from arbitrary pass-internal strings; printed value names
    must stay single parser tokens, so anything outside [A-Za-z0-9_] is
    mapped to '_' (and a leading digit is prefixed) — keeping printed IR
    a print→parse→print fixpoint.  A clean hint is returned as is. *)
let sanitize_hint (h : string) : string =
  let h =
    if String.for_all hint_char h then h
    else String.map (fun c -> if hint_char c then c else '_') h
  in
  if h <> "" && h.[0] >= '0' && h.[0] <= '9' then "_" ^ h else h

(** Write [v]'s name, numbering it on first sight. *)
let add_value env v =
  let n =
    match Hashtbl.find_opt env.names v.vid with
    | Some n -> n
    | None ->
        let n = env.next in
        env.next <- n + 1;
        Hashtbl.replace env.names v.vid n;
        n
  in
  Buffer.add_char env.buf '%';
  (match v.vhint with
  | Some h when h <> "" ->
      Buffer.add_string env.buf (sanitize_hint h);
      Buffer.add_char env.buf '_'
  | _ -> ());
  add_int env.buf n

let add_values env vs = add_sep env.buf (add_value env) vs
let add_types buf vs = add_sep buf (fun v -> add_typ buf v.vtyp) vs

let add_pad buf n =
  for _ = 1 to n do
    Buffer.add_char buf ' '
  done

let rec add_op env indent op =
  let buf = env.buf in
  add_pad buf indent;
  if op.results <> [] then begin
    add_values env op.results;
    Buffer.add_string buf " = "
  end;
  Buffer.add_char buf '"';
  Buffer.add_string buf op.opname;
  Buffer.add_string buf "\"(";
  add_values env op.operands;
  Buffer.add_char buf ')';
  if op.regions <> [] then begin
    Buffer.add_string buf " (";
    add_sep buf (add_region env indent) op.regions;
    Buffer.add_char buf ')'
  end;
  if op.attrs <> [] then begin
    Buffer.add_string buf " {";
    add_attr_entries buf
      (match op.attrs with
      | [ _ ] as l -> l
      | l -> List.sort (fun (a, _) (b, _) -> String.compare a b) l);
    Buffer.add_char buf '}'
  end;
  Buffer.add_string buf " : (";
  add_types buf op.operands;
  Buffer.add_string buf ") -> (";
  add_types buf op.results;
  Buffer.add_char buf ')'

and add_region env indent r =
  Buffer.add_string env.buf "{\n";
  List.iteri (fun i -> add_block env (indent + 2) ~entry:(i = 0)) r.blocks;
  add_pad env.buf indent;
  Buffer.add_char env.buf '}'

(* every block but an argument-less entry block gets a label, which is
   what separates it from the block before *)
and add_block env indent ~entry b =
  let buf = env.buf in
  if b.bargs <> [] || not entry then begin
    add_pad buf indent;
    Buffer.add_string buf "^bb";
    add_int buf (block_label env b);
    if b.bargs <> [] then begin
      Buffer.add_char buf '(';
      add_sep buf
        (fun a ->
          add_value env a;
          Buffer.add_string buf " : ";
          add_typ buf a.vtyp)
        b.bargs;
      Buffer.add_char buf ')'
    end;
    Buffer.add_string buf ":\n"
  end;
  List.iter
    (fun o ->
      add_op env indent o;
      Buffer.add_char buf '\n')
    b.bops

let op_to_string op =
  let env = new_env () in
  add_op env 0 op;
  Buffer.contents env.buf

let print_op op =
  print_string (op_to_string op);
  print_newline ()
