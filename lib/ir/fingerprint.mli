(** Stable content hashing of modules — the identity half of the compile
    service's content-addressed cache key.

    A module's fingerprint is the digest of its canonical textual form:
    the {!Printer} output.  Because print→parse→print is a fixpoint
    (enforced continuously by the hardening oracle and the property
    tests), every textual variation of the same module — comments,
    whitespace, value-name hints — collapses to one canonical string
    after a parse, so two sources that parse to the same module always
    fingerprint identically, across processes and OCaml versions. *)

(** Hex digest (MD5, 32 lowercase hex chars) of a byte string.  Stable
    across runs and platforms — unlike [Hashtbl.hash], which is neither
    guaranteed across versions nor wide enough for an address space. *)
val digest_hex : string -> string
