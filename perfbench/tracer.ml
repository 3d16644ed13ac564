(* In-memory span recorder for the traced benchmark run.

   A span is named "<layer>.<what>" and wraps one call into a layer's
   public API from the benchmark's own code; "bench.*" spans are the
   benchmark's own work (input set-up, output checks).  Self time is a
   span's duration minus the time its child spans cover.  Spans are
   aggregated as they close and the first [max_kept] are also kept, to
   be written out when the run ends.  With [enabled] false every entry
   point is one branch. *)

type span = {
  name : string;
  id : int;
  parent : int;  (** -1 for a root *)
  op : int;  (** every span of one operation shares this *)
  t0 : float;
  t1 : float;
}

type frame = { f_name : string; f_id : int; f_t0 : float; mutable child : float }

let enabled = ref false
let now = Unix.gettimeofday
let stack : frame list ref = ref []
let next_id = ref 0
let op = ref 0
let max_kept = 20_000
let kept : span list ref = ref []
let n_kept = ref 0
let self_s : (string, float) Hashtbl.t = Hashtbl.create 64

let new_op () = incr op

let record ~name ~id ~parent ~t0 ~t1 ~child =
  let self = Float.max 0.0 (t1 -. t0 -. child) in
  Hashtbl.replace self_s name
    (self +. Option.value (Hashtbl.find_opt self_s name) ~default:0.0);
  if !n_kept < max_kept then begin
    incr n_kept;
    kept := { name; id; parent; op = !op; t0; t1 } :: !kept
  end

let fresh_id () =
  incr next_id;
  !next_id

let top_id () = match !stack with f :: _ -> f.f_id | [] -> -1

(* Charge [d] seconds of child time to the innermost open span. *)
let charge_parent d =
  match !stack with f :: _ -> f.child <- f.child +. d | [] -> ()

let with_span name f =
  if not !enabled then f ()
  else begin
    let fr = { f_name = name; f_id = fresh_id (); f_t0 = now (); child = 0.0 } in
    let parent = top_id () in
    stack := fr :: !stack;
    let finish () =
      let t1 = now () in
      stack := List.tl !stack;
      charge_parent (t1 -. fr.f_t0);
      record ~name:fr.f_name ~id:fr.f_id ~parent ~t0:fr.f_t0 ~t1 ~child:fr.child
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* A completed interval timed elsewhere (pass remarks, engine phase
   stamps).  With no [parent] it nests under the innermost open span;
   [child] is the part of it that its own children cover.  Returns the
   span id so later intervals can name it as their parent. *)
let add ?parent ?(child = 0.0) name ~t0 ~t1 =
  if not !enabled then -1
  else begin
    let id = fresh_id () in
    let parent =
      match parent with
      | Some p -> p
      | None ->
          charge_parent (t1 -. t0);
          top_id ()
    in
    record ~name ~id ~parent ~t0 ~t1 ~child;
    id
  end

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Self time per layer, summed over every span recorded. *)
let layer_self () : (string * float) list =
  let tbl = Hashtbl.create 16 in
  Hashtbl.iter
    (fun name s ->
      let l = layer_of name in
      Hashtbl.replace tbl l (s +. Option.value (Hashtbl.find_opt tbl l) ~default:0.0))
    self_s;
  Hashtbl.fold (fun l s acc -> (l, s) :: acc) tbl []

let name_self () = Hashtbl.fold (fun n s acc -> (n, s) :: acc) self_s []

(* Kept spans in Chrome trace-event form (microseconds from [epoch]). *)
let to_json ~epoch : Wsc_trace.Json.t =
  let module J = Wsc_trace.Json in
  J.List
    (List.rev_map
       (fun s ->
         J.Obj
           [
             ("name", J.String s.name);
             ("cat", J.String (layer_of s.name));
             ("ph", J.String "X");
             ("pid", J.Int 1);
             ("tid", J.Int s.op);
             ("ts", J.Float (1e6 *. (s.t0 -. epoch)));
             ("dur", J.Float (1e6 *. (s.t1 -. s.t0)));
             ("args", J.Obj [ ("id", J.Int s.id); ("parent", J.Int s.parent) ]);
           ])
       !kept)
