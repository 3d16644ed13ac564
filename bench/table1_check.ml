(* Check EXPERIMENTS.md's Table 1 against the pinned `bench tab1` output:
   every benchmark's CSL kernel, CSL entire and DSL line counts must be
   the ones the harness prints, and both must list the same benchmarks.

     table1_check EXPERIMENTS.md figures.expected

   Exits 1 naming each difference. *)

let lines file = In_channel.with_open_text file In_channel.input_all |> String.split_on_char '\n'

(* The lines after the first one starting with [start], up to the first
   one [stop] accepts. *)
let section ~start ~stop ls =
  let rec skip = function
    | [] -> []
    | l :: rest -> if String.starts_with ~prefix:start l then take rest else skip rest
  and take = function [] -> [] | l :: rest -> if stop l then [] else l :: take rest in
  skip ls

let words s = String.split_on_char ' ' s |> List.filter (( <> ) "")

(* "| jacobian  |  76 | 588 | 12 | 180 / 964 / 28 |" -> ("jacobian", "76 588 12") *)
let doc_rows file =
  section ~start:"## Table 1" ~stop:(String.starts_with ~prefix:"## ") (lines file)
  |> List.filter_map (fun l ->
         match List.map String.trim (String.split_on_char '|' l) with
         | "" :: name :: k :: e :: d :: _ when int_of_string_opt k <> None ->
             Some (name, String.concat " " [ k; e; d ])
         | _ -> None)

(* "jacobian                   76            588                 12" *)
let bench_rows file =
  section ~start:"Table 1:" ~stop:(( = ) "") (lines file)
  |> List.filter_map (fun l ->
         match words l with
         | [ name; k; e; d ] when int_of_string_opt k <> None ->
             Some (name, String.concat " " [ k; e; d ])
         | _ -> None)

let () =
  match Sys.argv with
  | [| _; doc; expected |] ->
      let doc = List.sort compare (doc_rows doc)
      and bench = List.sort compare (bench_rows expected) in
      if bench = [] then (
        prerr_endline "table1_check: no Table 1 rows in the harness output";
        exit 1);
      if doc <> bench then begin
        let show rows =
          String.concat "; " (List.map (fun (n, v) -> n ^ " " ^ v) rows)
        in
        Printf.eprintf
          "table1_check: EXPERIMENTS.md Table 1 (kernel entire DSL) differs from bench tab1\n\
          \  EXPERIMENTS.md: %s\n\
          \  bench tab1:     %s\n"
          (show doc) (show bench);
        exit 1
      end
  | _ ->
      prerr_endline "usage: table1_check EXPERIMENTS.md figures.expected";
      exit 2
