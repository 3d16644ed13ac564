(** CSL source printer (paper §4.3): emits CSL code from csl-ir — the
    layout metaprogram, the PE program, and the runtime communication
    library that ships with every generated program. *)

exception Print_error of string

type file = { filename : string; contents : string }

(** All files for a compiled module (layout, program, comms library). *)
val print_files : Wsc_ir.Ir.op -> file list

(** Non-empty source lines — the paper's LoC metric (Table 1). *)
val loc_of : string -> int
