(** Parser for the generic textual form produced by {!Printer}.

    Supports round-tripping every construct the printer emits; used by the
    CLI (to accept stencil-dialect input files) and by the tests (to check
    printer/parser round trips). *)

open Ir

(** 1-based source position of a failure. *)
type location = { line : int; col : int }

exception Parse_error of location * string

let () =
  Printexc.register_printer (function
    | Parse_error (_, msg) -> Some ("Parse_error: " ^ msg)
    | _ -> None)

let error loc fmt =
  Printf.ksprintf (fun s -> raise (Parse_error (loc, s))) fmt

type token =
  | Tid of string          (* bare identifier *)
  | Tpercent of string     (* %name *)
  | Tat of string          (* @symbol *)
  | Tcaret of string       (* ^block *)
  | Tstring of string
  | Tint of int
  | Tfloat of float
  | Tpunct of char         (* ( ) { } [ ] < > , = : ! and any other byte *)
  | Tarrow                 (* -> *)
  | Teof

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_' || c = '.' || c = '$' || c = '-'

let is_digit c = c >= '0' && c <= '9'

(** Parser state.  The lexer runs on demand: [tok] is the next token,
    starting at byte [tok_start]; [pos] is the first byte not yet lexed.
    Line and column are computed from a byte offset only when an error
    is raised. *)
type state = {
  src : string;
  mutable pos : int;
  mutable tok : token;
  mutable tok_start : int;
  mutable pushed : (token * int) option;  (* the token a pushback hid *)
  values : (string, value) Hashtbl.t;  (* %name -> value *)
}

(** 1-based line and column of byte [off] of [src]. *)
let location_of (src : string) (off : int) : location =
  let line = ref 1 and line_start = ref 0 in
  for i = 0 to off - 1 do
    if String.unsafe_get src i = '\n' then begin
      incr line;
      line_start := i + 1
    end
  done;
  { line = !line; col = off - !line_start + 1 }

let lex_error st msg =
  let loc = location_of st.src st.tok_start in
  error loc "%s (line %d, column %d)" msg loc.line loc.col

(** The end of the identifier characters of [s] from [i]. *)
let rec ident_end s n i =
  if i < n && is_ident_char (String.unsafe_get s i) then ident_end s n (i + 1) else i

let rec digits_end s n i =
  if i < n && is_digit (String.unsafe_get s i) then digits_end s n (i + 1) else i

(** The end of an exponent whose 'e' is at [i]. *)
let exponent_end s n i =
  let i = i + 1 in
  digits_end s n (if i < n && (s.[i] = '+' || s.[i] = '-') then i + 1 else i)

let lex_ident st from =
  let j = ident_end st.src (String.length st.src) from in
  st.pos <- j;
  String.sub st.src from (j - from)

(** Lex the string literal whose opening quote is at [start]. *)
let lex_string st start =
  let s = st.src in
  let n = String.length s in
  let j = ref (start + 1) and escaped = ref false in
  while !j < n && s.[!j] <> '"' do
    if s.[!j] = '\\' && !j + 1 < n then begin
      escaped := true;
      j := !j + 2
    end
    else incr j
  done;
  if !j >= n then lex_error st "unterminated string";
  st.pos <- !j + 1;
  if not !escaped then Tstring (String.sub s (start + 1) (!j - start - 1))
  else begin
    let buf = Buffer.create (!j - start) in
    let k = ref (start + 1) in
    while !k < !j do
      if s.[!k] = '\\' then begin
        Buffer.add_char buf (match s.[!k + 1] with 'n' -> '\n' | c -> c);
        k := !k + 2
      end
      else begin
        Buffer.add_char buf s.[!k];
        incr k
      end
    done;
    Tstring (Buffer.contents buf)
  end

(** Lex the number that starts at [start]; a float needs a '.' or an
    exponent right after its digits, which leaves the 'x' of shapes like
    4x8xf32 alone. *)
let lex_number st start =
  let s = st.src in
  let n = String.length s in
  let j = digits_end s n (if s.[start] = '-' then start + 1 else start) in
  let is_float = j < n && (s.[j] = '.' || s.[j] = 'e' || s.[j] = 'E') in
  let j =
    if not is_float then j
    else if s.[j] = '.' then
      let j = digits_end s n (j + 1) in
      if j < n && (s.[j] = 'e' || s.[j] = 'E') then exponent_end s n j else j
    else exponent_end s n j
  in
  st.pos <- j;
  let l = String.sub s start (j - start) in
  if is_float then
    match float_of_string_opt l with
    | Some f -> Tfloat f
    | None -> lex_error st ("bad float literal '" ^ l ^ "'")
  else
    match int_of_string_opt l with
    | Some v -> Tint v
    | None ->
        (* out-of-range literals must surface as located parse errors,
           not the bare [Failure] of [int_of_string] *)
        lex_error st ("integer literal '" ^ l ^ "' out of range")

(** Lex the token at [st.pos] into [st.tok]. *)
let lex st =
  let s = st.src in
  let n = String.length s in
  (* skip blanks and // comments *)
  let i = ref st.pos and blank = ref true in
  while !blank && !i < n do
    match String.unsafe_get s !i with
    | ' ' | '\t' | '\n' | '\r' -> incr i
    | '/' when !i + 1 < n && s.[!i + 1] = '/' ->
        while !i < n && s.[!i] <> '\n' do incr i done
    | _ -> blank := false
  done;
  let start = !i in
  st.tok_start <- start;
  st.tok <-
    (if start >= n then begin
       st.pos <- n;
       Teof
     end
     else
       match s.[start] with
       | '%' -> Tpercent (lex_ident st (start + 1))
       | '@' -> Tat (lex_ident st (start + 1))
       | '^' -> Tcaret (lex_ident st (start + 1))
       | '"' -> lex_string st start
       | '0' .. '9' -> lex_number st start
       | '-' when start + 1 < n && is_digit s.[start + 1] -> lex_number st start
       | '-' when start + 1 < n && s.[start + 1] = '>' ->
           st.pos <- start + 2;
           Tarrow
       | c when is_ident_char c -> Tid (lex_ident st start)
       | c ->
           st.pos <- start + 1;
           Tpunct c)

let peek st = st.tok

let advance st =
  match st.pushed with
  | Some (t, off) ->
      st.pushed <- None;
      st.tok <- t;
      st.tok_start <- off
  | None -> lex st

(** Make [t] (starting at byte [off]) the next token, ahead of the
    current one. *)
let push_back st t off =
  st.pushed <- Some (st.tok, st.tok_start);
  st.tok <- t;
  st.tok_start <- off

let token_str = function
  | Tid s -> "id:" ^ s
  | Tpercent s -> "%" ^ s
  | Tat s -> "@" ^ s
  | Tcaret s -> "^" ^ s
  | Tstring s -> "\"" ^ s ^ "\""
  | Tint i -> string_of_int i
  | Tfloat f -> string_of_float f
  | Tpunct c -> String.make 1 c
  | Tarrow -> "->"
  | Teof -> "<eof>"

let fail st msg =
  let loc = location_of st.src st.tok_start in
  error loc "%s (at %s, line %d, column %d)" msg (token_str (peek st)) loc.line
    loc.col

let expect st p =
  match peek st with
  | Tpunct q when q = p -> advance st
  | _ -> fail st (Printf.sprintf "expected '%c'" p)

let expect_arrow st =
  match peek st with Tarrow -> advance st | _ -> fail st "expected '->'"

let accept st p =
  match peek st with
  | Tpunct q when q = p ->
      advance st;
      true
  | _ -> false

(* Types -------------------------------------------------------------- *)

(** Parse [elt] repeatedly, separated by ',', while [more] holds of the
    next token (a trailing ',' is accepted). *)
let rec comma_list ?(acc = []) st more elt =
  if more (peek st) then begin
    let x = elt st in
    if accept st ',' then comma_list ~acc:(x :: acc) st more elt
    else List.rev (x :: acc)
  end
  else List.rev acc

let not_rparen = function Tpunct ')' -> false | _ -> true
let not_rbracket = function Tpunct ']' -> false | _ -> true
let is_lbrace = function Tpunct '{' -> true | _ -> false
let is_percent = function Tpercent _ -> true | _ -> false
let is_id = function Tid _ -> true | _ -> false

(* Shape elements inside tensor<...> print as "4x8xf32"; the tokenizer
   produces that as a single identifier, so split on 'x'. *)
let rec parse_typ st : typ =
  match peek st with
  | Tpunct '!' ->
      advance st;
      parse_bang_typ st
  | Tpunct '(' ->
      (* function type: (t, t) -> (t) *)
      advance st;
      let ins = parse_typ_list st in
      expect st ')';
      expect_arrow st;
      expect st '(';
      let outs = parse_typ_list st in
      expect st ')';
      Function (ins, outs)
  | Tid id ->
      advance st;
      parse_id_typ st id
  | _ -> fail st "expected type"

and parse_typ_list st =
  comma_list st not_rparen parse_typ

and scalar_of_name = function
  | "f16" -> Some F16
  | "f32" -> Some F32
  | "f64" -> Some F64
  | "i1" -> Some I1
  | "i16" -> Some I16
  | "i32" -> Some I32
  | "i64" -> Some I64
  | "index" -> Some Index
  | _ -> None

and parse_id_typ st id =
  match scalar_of_name id with
  | Some t -> t
  | None -> (
      match id with
      | "tensor" ->
          expect st '<';
          let shape, e = parse_shape_elem st in
          expect st '>';
          Tensor (shape, e)
      | "memref" ->
          expect st '<';
          let shape, e = parse_shape_elem st in
          expect st '>';
          Memref (shape, e)
      | _ -> fail st (Printf.sprintf "unknown type '%s'" id))

(* parse "4x8xf32" possibly spread over tokens, or nested types after shape *)
and parse_shape_elem st : int list * typ =
  let dims = ref [] in
  let finish t = (List.rev !dims, t) in
  let rec go () =
    match peek st with
    | Tint d ->
        advance st;
        (* "4x8xf32" lexes as Tint 4 then Tid "x8xf32", since 'x' is an
           identifier character *)
        dims := d :: !dims;
        (match peek st with
        | Tid s when String.length s > 0 && s.[0] = 'x' ->
            advance st;
            parse_x_suffix st (String.sub s 1 (String.length s - 1))
        | _ -> fail st "expected 'x' in shape")
    | Tid s -> (
        advance st;
        match scalar_of_name s with
        | Some t -> finish t
        | None -> parse_mixed_shape_ident st s)
    | Tpunct '!' ->
        advance st;
        finish (parse_bang_typ st)
    | _ -> fail st "expected shape or element type"
  and parse_x_suffix st rest =
    if rest = "" then go ()
    else parse_mixed_shape_ident st rest
  and parse_mixed_shape_ident st s =
    (* s like "8x16xf32", "f32", "8x" or "14xindex": consume leading
       digit runs separated by 'x'; whatever remains (which may itself
       contain 'x', e.g. "index") is the element type name *)
    let n = String.length s in
    let rec consume i =
      if i >= n then go ()
      else if s.[i] >= '0' && s.[i] <= '9' then begin
        let j = ref i in
        while !j < n && s.[!j] >= '0' && s.[!j] <= '9' do incr j done;
        dims := int_of_string (String.sub s i (!j - i)) :: !dims;
        if !j < n then
          if s.[!j] = 'x' then consume (!j + 1)
          else fail st (Printf.sprintf "bad shape element '%s'" s)
        else go ()
      end
      else begin
        let rest = String.sub s i (n - i) in
        match scalar_of_name rest with
        | Some t -> finish t
        | None -> fail st (Printf.sprintf "bad shape element '%s'" rest)
      end
    in
    consume 0
  in
  go ()

and parse_bang_typ st : typ =
  match peek st with
  | Tid id when id = "stencil.temp" || id = "stencil.field" -> (
      advance st;
      expect st '<';
      let bounds = parse_bounds st in
      let e = parse_typ st in
      expect st '>';
      match id with
      | "stencil.temp" -> Temp (bounds, e)
      | _ -> Field (bounds, e))
  | Tid "csl.color" ->
      advance st;
      Color
  | Tid "csl.ptr" -> (
      advance st;
      expect st '<';
      let t = parse_typ st in
      expect st ',';
      match peek st with
      | Tid "single" ->
          advance st;
          expect st '>';
          Ptr (t, Ptr_single)
      | Tid "many" ->
          advance st;
          expect st '>';
          Ptr (t, Ptr_many)
      | _ -> fail st "expected single|many")
  | Tid "csl.dsd" -> (
      advance st;
      expect st '<';
      match peek st with
      | Tid k ->
          advance st;
          expect st '>';
          let kind =
            match k with
            | "mem1d" -> Mem1d
            | "mem4d" -> Mem4d
            | "fabin" -> Fabin
            | "fabout" -> Fabout
            | _ -> fail st "bad dsd kind"
          in
          Dsd kind
      | _ -> fail st "expected dsd kind")
  | Tid "csl.struct" -> (
      advance st;
      expect st '<';
      match peek st with
      | Tid s ->
          advance st;
          expect st '>';
          Struct s
      | Tstring s ->
          (* quoted form for names that are not identifier tokens *)
          advance st;
          expect st '>';
          Struct s
      | _ -> fail st "expected struct name")
  | _ -> fail st "unknown ! type"

(* bounds: [l,u]x[l,u]x... then elem type follows *)
and parse_bounds st : (int * int) list =
  let rec go acc =
    if accept st '[' then begin
      let lb = parse_int st in
      expect st ',';
      let ub = parse_int st in
      expect st ']';
      let acc = (lb, ub) :: acc in
      (* following is ident starting with x, e.g. "x" then next bound, or
         'x' merged with following type name like "xf32" *)
      match peek st with
      | Tid s when String.length s >= 1 && s.[0] = 'x' ->
          let off = st.tok_start in
          advance st;
          let rest = String.sub s 1 (String.length s - 1) in
          if rest = "" then go acc
          else begin
            (* rest is the element type name (scalar or compound like
               "tensor"): push it back and end the bounds *)
            push_back st (Tid rest) off;
            List.rev acc
          end
      | _ -> List.rev acc
    end
    else List.rev acc
  in
  go []

and parse_int st =
  match peek st with
  | Tint i ->
      advance st;
      i
  | _ -> fail st "expected integer"

(* Attributes ---------------------------------------------------------- *)

(** The identifiers the printer writes for non-finite floats. *)
let float_of_id = function
  | "inf" -> Some Float.infinity
  | "-inf" -> Some Float.neg_infinity
  | "nan" -> Some Float.nan
  | "-nan" -> Some (-.Float.nan)
  | _ -> None

let rec parse_attr st : attr =
  match peek st with
  | Tid "unit" ->
      advance st;
      Unit_attr
  | Tid "true" ->
      advance st;
      Bool_attr true
  | Tid "false" ->
      advance st;
      Bool_attr false
  | Tid "dense_i" ->
      advance st;
      expect st '[';
      let l = comma_list st (function Tint _ -> true | _ -> false) parse_int in
      expect st ']';
      Dense_ints l
  | Tid "dense_f" ->
      advance st;
      expect st '[';
      let dense_float = function
        | Tfloat f -> Some f
        | Tint i -> Some (float_of_int i)
        | Tid id -> float_of_id id
        | _ -> None
      in
      let l =
        comma_list st
          (fun t -> dense_float t <> None)
          (fun st ->
            let f = Option.get (dense_float (peek st)) in
            advance st;
            f)
      in
      expect st ']';
      Dense_floats l
  | Tint i ->
      advance st;
      Int_attr i
  | Tfloat f ->
      advance st;
      Float_attr f
  | Tid id when float_of_id id <> None ->
      advance st;
      Float_attr (Option.get (float_of_id id))
  | Tstring s ->
      advance st;
      String_attr s
  | Tat s ->
      advance st;
      Symbol_ref s
  | Tpunct '[' ->
      advance st;
      let l = comma_list st not_rbracket parse_attr in
      expect st ']';
      Array_attr l
  | Tpunct '{' ->
      advance st;
      let l = parse_attr_dict_body st in
      expect st '}';
      Dict_attr l
  | Tpunct '!' | Tpunct '(' ->
      Type_attr (parse_typ st)
  | Tid id when scalar_of_name id <> None || id = "tensor" || id = "memref" ->
      Type_attr (parse_typ st)
  | _ -> fail st "expected attribute"

and parse_attr_dict_body st : (string * attr) list =
  comma_list st is_id (fun st ->
      match peek st with
      | Tid k ->
          advance st;
          expect st '=';
          (k, parse_attr st)
      | _ -> assert false)

(* Operations ---------------------------------------------------------- *)

let lookup_value st name typ =
  match Hashtbl.find_opt st.values name with
  | Some v -> v
  | None ->
      let v = new_value typ in
      Hashtbl.replace st.values name v;
      v

(** Invert the printer's value naming so name hints survive a parse and
    printed IR is a print→parse→print fixpoint: ["out_12"] carries hint
    ["out"] (the printer appends its own counter), plain ["12"] carries
    none, and any other name is kept whole as the hint. *)
let hint_of_name (name : string) : string option =
  let all_digits s =
    s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s
  in
  if all_digits name then None
  else
    match String.rindex_opt name '_' with
    | Some i
      when i > 0
           && i < String.length name - 1
           && all_digits (String.sub name (i + 1) (String.length name - i - 1))
      ->
        Some (String.sub name 0 i)
    | _ -> Some name

let value_name st =
  match peek st with
  | Tpercent n ->
      advance st;
      n
  | _ -> assert false

let check_count st ~op_start opname what names types =
  if List.compare_lengths names types <> 0 then begin
    let op_loc = location_of st.src op_start in
    fail st
      (Printf.sprintf "op %s (line %d, column %d): %d %ss but %d %s types"
         opname op_loc.line op_loc.col (List.length names) what
         (List.length types) what)
  end

let rec parse_op st : op =
  (* results *)
  let result_names =
    if is_percent (peek st) then begin
      let ns = comma_list st is_percent value_name in
      expect st '=';
      ns
    end
    else []
  in
  let op_start = st.tok_start in
  let opname =
    match peek st with
    | Tstring s ->
        advance st;
        s
    | _ -> fail st "expected op name string"
  in
  expect st '(';
  let operand_names = comma_list st is_percent value_name in
  expect st ')';
  (* regions *)
  let regions =
    if accept st '(' then begin
      let rs = comma_list st is_lbrace parse_region in
      expect st ')';
      rs
    end
    else []
  in
  (* attributes *)
  let attrs =
    if accept st '{' then begin
      let l = parse_attr_dict_body st in
      expect st '}';
      l
    end
    else []
  in
  expect st ':';
  expect st '(';
  let in_types = parse_typ_list st in
  expect st ')';
  expect_arrow st;
  expect st '(';
  let out_types = parse_typ_list st in
  expect st ')';
  (* guard the List.map2/iter2 below: a count mismatch must surface as a
     parse error naming the op and its source line, not as a bare
     [Invalid_argument "List.map2"] *)
  check_count st ~op_start opname "operand" operand_names in_types;
  check_count st ~op_start opname "result" result_names out_types;
  let operands = List.map2 (lookup_value st) operand_names in_types in
  let op = create_op opname ~operands ~attrs ~regions ~results:out_types in
  List.iter2
    (fun name v ->
      v.vhint <- hint_of_name name;
      Hashtbl.replace st.values name v)
    result_names op.results;
  op

and parse_region st : region =
  expect st '{';
  let rec blocks acc =
    match peek st with
    | Tcaret _ | Tpercent _ | Tstring _ -> blocks (parse_block st :: acc)
    | _ -> List.rev acc
  in
  let bs = blocks [] in
  expect st '}';
  let bs = if bs = [] then [ new_block [] ] else bs in
  new_region bs

and parse_block st : block =
  let args =
    match peek st with
    | Tcaret _ ->
        advance st;
        (* the argument list is optional: [^bb1:] has none *)
        let args =
          if accept st '(' then begin
            let args =
              comma_list st is_percent (fun st ->
                  let n = value_name st in
                  expect st ':';
                  let t = parse_typ st in
                  let v = new_value ?hint:(hint_of_name n) t in
                  Hashtbl.replace st.values n v;
                  v)
            in
            expect st ')';
            args
          end
          else []
        in
        expect st ':';
        args
    | _ -> []
  in
  let rec ops acc =
    match peek st with
    | Tpercent _ | Tstring _ -> ops (parse_op st :: acc)
    | _ -> List.rev acc
  in
  new_block ~args (ops [])

(** Parse a single top-level operation (usually a [builtin.module]). *)
let parse_string (s : string) : op =
  let st =
    { src = s; pos = 0; tok = Teof; tok_start = 0; pushed = None;
      values = Hashtbl.create 64 }
  in
  lex st;
  let op = parse_op st in
  (match peek st with
  | Teof -> ()
  | t ->
      let loc = location_of s st.tok_start in
      error loc "trailing input: %s (line %d, column %d)" (token_str t) loc.line
        loc.col);
  op

let parse_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  try parse_string s
  with Parse_error (loc, msg) -> raise (Parse_error (loc, path ^ ": " ^ msg))
