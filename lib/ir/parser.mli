(** Parser for the generic textual IR form produced by {!Printer}.
    Accepts exactly the constructs the printer emits (plus [//] line
    comments), so print/parse is a fixpoint after one round trip.  The
    lexer runs on demand as the parser asks for tokens, so only the
    fault the parser reaches first is located and reported: in an input
    with several faults, that is the first one in text order. *)

(** Source position of a parse failure: 1-based line and column of the
    offending token (the end of input counts as one). *)
type location = { line : int; col : int }

(** Every failure of this parser — malformed syntax, unknown types,
    numeric literals out of range, trailing tokens — raises this, never
    a bare [Failure] or [Invalid_argument].  [msg] is the full
    human-readable message and already names the location. *)
exception Parse_error of location * string

(** Parse a single top-level operation (usually a [builtin.module]).
    Floats read back bit for bit what {!Printer} wrote, [inf], [-inf],
    [nan] and [-nan] included.
    @raise Parse_error on malformed input or trailing tokens; messages
    name the offending op and its source line/column (e.g. an operand
    count that disagrees with the op's type list). *)
val parse_string : string -> Ir.op

val parse_file : string -> Ir.op
