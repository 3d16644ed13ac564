(** Stable content hashing of modules — see the interface. *)

let digest_hex (s : string) : string = Digest.to_hex (Digest.string s)
