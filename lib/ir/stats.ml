(** IR statistics.

    The performance models in {!Wsc_perf} are driven by measurements of the
    actually-compiled program: op histograms, per-point FLOP counts, and
    communication volumes.  This module extracts them. *)

open Ir

(** Histogram of op names under [root]. *)
let op_histogram (root : op) : (string * int) list =
  let h = Hashtbl.create 64 in
  walk_op
    (fun o ->
      let c = Option.value (Hashtbl.find_opt h o.opname) ~default:0 in
      Hashtbl.replace h o.opname (c + 1))
    root;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) h []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let count root name =
  Option.value (List.assoc_opt name (op_histogram root)) ~default:0

(** Total number of ops under [root]. *)
let total_ops (root : op) : int =
  let n = ref 0 in
  walk_op (fun _ -> incr n) root;
  !n
