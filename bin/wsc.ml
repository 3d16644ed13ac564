(** wsc — the wafer-scale stencil compiler driver.

    Subcommands:
    - [compile]: run the full pipeline on a built-in benchmark or a
      stencil-dialect IR file and write the generated CSL files;
    - [simulate]: compile and execute on the fabric simulator, checking
      the result against the sequential reference interpreter;
    - [trace]: simulate with the event collector attached and export a
      Chrome-trace JSON timeline plus profiling tables;
    - [perf]: report simulated throughput for a benchmark/machine/size;
    - [ir]: print the IR after a chosen pipeline stage;
    - [fuzz]: run a seeded differential-testing campaign (random
      programs, three cross-checked executions, crash artifacts), or
      emit the generated cases as a corpus of [.mlir] files;
    - [reduce]: shrink a crash artifact to a minimal reproducer;
    - [serve]: long-running compile service (JSON-lines over stdio or a
      Unix socket, persistent worker domains, content-addressed cache);
    - [batch]: run the serve engine over a manifest of IR files;
    - [multiwafer]: decompose a benchmark across N simulated wafers,
      co-simulate the wafers one at a time, and check bit-identity against
      the undecomposed single-wafer run. *)

open Cmdliner
module B = Wsc_benchmarks.Benchmarks
module P = Wsc_frontends.Stencil_program
module I = Wsc_dialects.Interp
module F = Wsc_wse.Fabric
module T = Wsc_trace.Trace

let ( let* ) = Result.bind

let program_of ~bench ~input ~size ~iterations :
    (P.t option * Wsc_ir.Ir.op, [ `Msg of string ]) result =
  match (bench, input) with
  | Some id, None -> (
      match B.program ?iterations id size with
      | exception Invalid_argument msg -> Error (`Msg msg)
      | p -> Ok (Some p, P.compile p))
  | None, Some file -> Ok (None, Wsc_ir.Parser.parse_file file)
  | Some _, Some _ ->
      Error (`Msg "give only one of --bench NAME or an input FILE, not both")
  | None, None -> Error (`Msg "give exactly one of --bench NAME or an input FILE")

let size_conv =
  let bad s =
    Error
      (`Msg
        (Printf.sprintf "bad size '%s': accepted sizes are tiny|small|medium|large|NxM"
           s))
  in
  let parse s =
    match s with
    | "tiny" -> Ok B.Tiny
    | "small" -> Ok B.Small
    | "medium" -> Ok B.Medium
    | "large" -> Ok B.Large
    | s -> (
        match String.split_on_char 'x' s with
        | [ a; b ] -> (
            match (int_of_string_opt a, int_of_string_opt b) with
            | Some x, Some y when x >= 1 && y >= 1 -> Ok (B.Proxy (x, y))
            | Some _, Some _ ->
                Error
                  (`Msg
                    (Printf.sprintf "bad size '%s': both extents must be at least 1" s))
            | _ -> bad s)
        | _ -> bad s)
  in
  Arg.conv (parse, fun fmt s -> Format.pp_print_string fmt (B.size_to_string s))

let iters_conv =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n < 0 ->
        Error (`Msg (Printf.sprintf "bad iteration count '%s': must be at least 0" s))
    | r -> r
  in
  Arg.conv (parse, Format.pp_print_int)

let machine_conv =
  let parse = function
    | "wse2" -> Ok Wsc_wse.Machine.wse2
    | "wse3" -> Ok Wsc_wse.Machine.wse3
    | s -> Error (`Msg ("unknown machine: " ^ s))
  in
  Arg.conv (parse, fun fmt (m : Wsc_wse.Machine.t) -> Format.pp_print_string fmt m.name)

let bench_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "b"; "bench" ] ~docv:"NAME"
        ~doc:"Built-in benchmark (jacobian, diffusion, acoustic, seismic, uvkbe).")

let input_arg =
  Arg.(
    value
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"Stencil-dialect IR input file.")

let size_arg =
  Arg.(
    value & opt size_conv B.Tiny
    & info [ "s"; "size" ] ~docv:"SIZE"
        ~doc:"Problem size: tiny, small, medium, large or WxH.")

let iters_arg =
  Arg.(
    value
    & opt (some iters_conv) None
    & info [ "n"; "iterations" ] ~docv:"N" ~doc:"Timestep count override.")

let machine_arg =
  Arg.(
    value & opt machine_conv Wsc_wse.Machine.wse3
    & info [ "m"; "machine" ] ~docv:"MACHINE" ~doc:"Target: wse2 or wse3.")

let outdir_arg =
  Arg.(
    value & opt string "out"
    & info [ "o"; "outdir" ] ~docv:"DIR" ~doc:"Output directory for CSL files.")

let json_arg ~doc =
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

(* the benchmark of a subcommand that takes no input FILE *)
let find_bench ~cmd (bench : string option) : (B.descr, [ `Msg of string ]) result =
  match bench with
  | None -> Error (`Msg (cmd ^ ": --bench required"))
  | Some id -> (
      match B.find id with
      | exception Invalid_argument msg -> Error (`Msg msg)
      | d -> Ok d)

let pipeline_options = Wsc_core.Pipeline.default_options

let write_json (path : string) (doc : Wsc_trace.Json.t) : unit =
  let oc = open_out path in
  Wsc_trace.Json.to_channel oc doc;
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" path

(* ---------------- compile ---------------- *)

let compile_cmd =
  let run bench input size iterations outdir =
    let* _, m = program_of ~bench ~input ~size ~iterations in
    let compiled = Wsc_core.Pipeline.compile ~options:pipeline_options m in
    let files = Wsc_core.Csl_printer.print_files compiled in
    if not (Sys.file_exists outdir) then Sys.mkdir outdir 0o755;
    List.iter
      (fun (f : Wsc_core.Csl_printer.file) ->
        let path = Filename.concat outdir f.filename in
        let oc = open_out path in
        output_string oc f.contents;
        close_out oc;
        Printf.printf "wrote %s (%d LoC)\n" path (Wsc_core.Csl_printer.loc_of f.contents))
      files;
    Ok ()
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile to CSL source files.")
    Term.(
      term_result
        (const run $ bench_arg $ input_arg $ size_arg $ iters_arg $ outdir_arg))

(* ---------------- simulate ---------------- *)

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print the scheduler counters (including the peak number of live \
           send records) and the per-PE busy/blocked summary after the run.")

let time_arg =
  Arg.(
    value & flag
    & info [ "time" ]
        ~doc:
          "Also report the host-side wall-clock time (seconds) of every \
           phase — compile, init, simulate (load and run), readback, \
           reference, compare — as opposed to the simulated cycles.")

let sim_json_arg =
  json_arg
    ~doc:
      "Write a machine-readable run summary (simulated cycles, wall_s, \
       per-phase wall times, driver, reference divergence, peak live send \
       records)."

let simulate_cmd =
  let run bench input size iterations machine stats time json_out =
    (* host wall time of each phase, in run order *)
    let phases = ref [] in
    let timed name f =
      let t0 = Unix.gettimeofday () in
      let r = f () in
      phases := (name, Unix.gettimeofday () -. t0) :: !phases;
      r
    in
    let* prog, compiled =
      timed "compile" (fun () ->
          let* prog, m = program_of ~bench ~input ~size ~iterations in
          Ok (prog, Wsc_core.Pipeline.compile ~options:pipeline_options m))
    in
    match prog with
    | None -> Error (`Msg "simulate: reference check needs --bench")
    | Some p ->
        P.check_reference ~max_bytes:F.max_simulated_bytes p;
        let init = timed "init" (fun () -> P.init_grids p) in
        (* simulate first: the fabric guards (grid size, per-PE memory)
           reject oversized runs before the expensive reference pass.
           All that is printed about the fabric is taken in this block,
           so the reference can reuse its heap once it is collected *)
        let out, width, height, cycles, seconds, st, sched, busy =
          let h = timed "simulate" (fun () -> Wsc_wse.Host.simulate machine compiled init) in
          let out = timed "readback" (fun () -> Wsc_wse.Host.read_all h) in
          let sim = h.sim in
          ( out, sim.width, sim.height, F.elapsed_cycles sim, F.elapsed_seconds sim,
            F.total_stats sim, F.sched_stats sim,
            if stats then Wsc_trace.Aggregate.busy_blocked_table (F.pe_summaries sim)
            else "" )
        in
        let ref_grids =
          timed "reference" (fun () -> Gc.full_major (); P.run_reference p)
        in
        let maxd =
          timed "compare" (fun () -> I.max_abs_diff_list ref_grids out)
        in
        let matched = P.within_tolerance maxd in
        let phases = List.rev !phases in
        let wall_s = List.assoc "simulate" phases in
        let total = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 phases in
        Printf.printf "simulated %s on %s: %dx%d PEs, %.0f cycles (%.3f ms)\n"
          p.P.pname machine.name width height cycles (1e3 *. seconds);
        Printf.printf "  flops=%.3e  sent=%d elems  tasks=%d\n" st.flops
          st.elems_sent st.task_activations;
        if time then
          Printf.printf "  wall %s  total %.3f s\n"
            (String.concat "  "
               (List.map (fun (name, s) -> Printf.sprintf "%s %.3f s" name s) phases))
            total;
        if stats then begin
          Printf.printf "  scheduler: scans=%d probes=%d peak_sends_live=%d\n"
            sched.scans sched.probes sched.peak_sends_live;
          print_string busy
        end;
        Printf.printf "  max |difference| vs sequential reference: %.3e  -> %s\n"
          maxd
          (if matched then "MATCH" else "MISMATCH");
        (match json_out with
        | None -> ()
        | Some path ->
            let module J = Wsc_trace.Json in
            write_json path
              (J.summary ~tool:"simulate"
                 ~config:
                   [
                     ("bench", J.String p.P.pname);
                     ("machine", J.String machine.name);
                     ("size", J.String (B.size_to_string size));
                     ("width", J.Int width);
                     ("height", J.Int height);
                   ]
                 ~results:
                   [
                     J.Obj
                       [
                         ("cycles", J.Float cycles);
                         ("seconds", J.Float seconds);
                         ("wall_s", J.Float wall_s);
                         ( "phase_wall_s",
                           J.Obj
                             (List.map (fun (name, s) -> (name, J.Float s)) phases
                             @ [ ("total", J.Float total) ]) );
                         ("driver", J.String F.driver);
                         ("max_diff", J.Float maxd);
                         ("peak_sends_live", J.Int sched.peak_sends_live);
                       ];
                   ]));
        if not matched then exit 1;
        Ok ()
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Compile, run on the fabric simulator, check against the reference.")
    Term.(
      term_result
        (const run $ bench_arg $ input_arg $ size_arg $ iters_arg $ machine_arg
       $ stats_arg $ time_arg $ sim_json_arg))

(* ---------------- trace ---------------- *)

let trace_out_arg =
  Arg.(
    value & opt string "trace.json"
    & info [ "o"; "out" ] ~docv:"FILE"
        ~doc:
          "Chrome-trace JSON output path (open with Perfetto or \
           chrome://tracing).")

let top_arg =
  Arg.(
    value & opt int 8
    & info [ "top" ] ~docv:"N" ~doc:"Hottest-PE rows in the busy/blocked table.")

let trace_cmd =
  let run bench input size iterations machine out top =
    let* prog, m = program_of ~bench ~input ~size ~iterations in
    match prog with
    | Some p ->
        let remarks = ref [] in
        let pass_options =
          {
            Wsc_ir.Pass.default_options with
            on_remark = Some (Wsc_trace.Remarks.collect remarks);
          }
        in
        let compiled =
          Wsc_core.Pipeline.compile ~options:pipeline_options ~pass_options m
        in
        let sink = T.collector () in
        let h = Wsc_wse.Host.simulate ~trace:sink machine compiled (P.init_grids p) in
        Wsc_trace.Remarks.emit sink !remarks;
        Wsc_trace.Chrome.write_file ~path:out sink;
        let simulated = F.elapsed_cycles h.sim in
        Printf.printf "traced %s on %s: %dx%d PEs, %.0f cycles, %d events -> %s\n\n"
          p.P.pname machine.name h.sim.width h.sim.height simulated
          (T.event_count sink) out;
        print_string (Wsc_trace.Remarks.table !remarks);
        print_newline ();
        print_string
          (Wsc_trace.Aggregate.busy_blocked_table ~top (F.pe_summaries h.sim));
        print_newline ();
        print_string (Wsc_trace.Aggregate.link_table (T.events sink));
        Ok ()
    | None ->
        Error (`Msg "trace: needs --bench (the initial data comes from the benchmark)")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Simulate with the event collector attached; export a Perfetto \
          timeline and print the pass-remarks, busy/blocked and link \
          reports.")
    Term.(
      term_result
        (const run $ bench_arg $ input_arg $ size_arg $ iters_arg $ machine_arg
       $ trace_out_arg $ top_arg))

(* ---------------- faults ---------------- *)

module Faults = Wsc_faults.Faults
module Campaign = Wsc_faults_campaign.Campaign

(* a cmdliner converter over the fault models [kinds], named by [to_string] *)
let kind_conv ~noun (kinds : 'k list) (to_string : 'k -> string) : 'k Arg.conv
    =
  let parse s =
    match List.find_opt (fun k -> to_string k = s) kinds with
    | Some k -> Ok k
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown %s '%s': accepted kinds are %s" noun s
               (String.concat ", " (List.map to_string kinds))))
  in
  Arg.conv (parse, fun fmt k -> Format.pp_print_string fmt (to_string k))

let kinds_arg =
  Arg.(
    value
    & opt
        (list (kind_conv ~noun:"fault kind" Faults.all_kinds Faults.kind_to_string))
        Faults.all_kinds
    & info [ "k"; "kinds" ] ~docv:"KINDS"
        ~doc:
          "Comma-separated fault models to sweep: drop, corrupt, stall, halt, \
           backpressure (default: all).")

let rates_arg =
  Arg.(
    value
    & opt (list float) [ 0.001; 0.01 ]
    & info [ "r"; "rates" ] ~docv:"RATES"
        ~doc:"Comma-separated fault rates to sweep (per injection site).")

let seeds_arg =
  Arg.(
    value
    & opt (list int) [ 1; 2; 3 ]
    & info [ "seeds" ] ~docv:"SEEDS" ~doc:"Comma-separated campaign seeds.")

let no_resilience_arg =
  Arg.(
    value & flag
    & info [ "no-resilience" ]
        ~doc:
          "Disable the detection & recovery protocol: faults land undetected \
           (measures raw vulnerability instead of recovery overhead).")

let faults_json_arg = json_arg ~doc:"Also write the report as JSON."

let faults_trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Collect every cell's events (faults, retries, halts included) on \
           one shared timeline and export it as Chrome-trace JSON.")

let faults_cmd =
  let run bench size iterations machine kinds rates seeds no_resilience
      json_out trace_out =
    let* { B.id; _ } = find_bench ~cmd:"faults" bench in
    let sink = Option.map (fun _ -> T.collector ()) trace_out in
    let report =
      Campaign.run ~machine ?iterations ~kinds ?trace:sink ~bench:id ~size
        ~resilient:(not no_resilience) ~rates ~seeds ()
    in
    print_string (Campaign.to_string report);
    Option.iter (fun path -> write_json path (Campaign.to_json report)) json_out;
    (match (trace_out, sink) with
    | Some path, Some sink ->
        Wsc_trace.Chrome.write_file ~path sink;
        Printf.printf "wrote %s (%d events)\n" path (T.event_count sink);
        print_string (Wsc_trace.Aggregate.fault_table (T.events sink))
    | _ -> ());
    Ok ()
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Run a deterministic fault-injection campaign (fault model × rate × \
          seed) against the fabric simulator and report survival, recovery \
          overhead and divergence vs the sequential reference.")
    Term.(
      term_result
        (const run $ bench_arg $ size_arg $ iters_arg $ machine_arg $ kinds_arg
       $ rates_arg $ seeds_arg $ no_resilience_arg $ faults_json_arg
       $ faults_trace_arg))

(* ---------------- fuzz / reduce ---------------- *)

module H = Wsc_harden

let fuzz_count_arg =
  Arg.(
    value & opt int 20
    & info [ "c"; "count" ] ~docv:"N" ~doc:"How many programs to generate.")

let fuzz_seed_arg =
  Arg.(
    value & opt int 1
    & info [ "seed" ] ~docv:"SEED"
        ~doc:
          "Campaign seed: case $(i,i) depends only on (SEED, $(i,i)), so the \
           same seed replays the identical campaign.")

let crash_dir_arg =
  Arg.(
    value & opt string "crashes"
    & info [ "crash-dir" ] ~docv:"DIR"
        ~doc:"Where failing cases are dumped as crash artifacts.")

let inject_bug_arg =
  Arg.(
    value & flag
    & info [ "inject-bug" ]
        ~doc:
          "Test-only: splice a deliberately wrong pass into the pipeline to \
           prove the harness catches, dumps and reduces a miscompile.")

let reduce_budget_arg =
  Arg.(
    value & opt int 150
    & info [ "reduce-budget" ] ~docv:"N"
        ~doc:
          "Max oracle re-runs while reducing one failing case (0 disables \
           reduction).")

let fuzz_json_arg = json_arg ~doc:"Also write the campaign summary as JSON."

let emit_corpus_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "emit-corpus" ] ~docv:"DIR"
        ~doc:
          "Instead of running the differential oracle, write the generated \
           cases to DIR as standalone .mlir files (fuzz-s<seed>-c<i>.mlir).  \
           Emission is a pure function of (--seed, --count): the same seed \
           always writes byte-identical files.")

let mwfaults_fuzz_arg =
  Arg.(
    value & flag
    & info [ "mwfaults" ]
        ~doc:
          "Add the chaos tier: co-simulate each case at 2x1 wafers under \
           low-rate seeded wafer faults with the resilience protocol on, \
           demanding post-recovery bit-identity (failure key \
           mwfaults:<kind>).")

let fuzz_cmd =
  let run count seed machine crash_dir inject_bug mwfaults reduce_budget
      json_out emit_corpus =
    match emit_corpus with
    | Some dir ->
        let paths = H.Corpus.emit ~dir ~seed ~count in
        Printf.printf "emitted %d corpus file(s) (seed %d) into %s\n"
          (List.length paths) seed dir;
        Ok ()
    | None ->
    let cfg =
      {
        H.Campaign.seed;
        count;
        machine;
        crash_dir;
        inject_bug;
        mwfaults;
        reduce_budget;
      }
    in
    let on_case (c : H.Campaign.case) =
      match c.H.Campaign.c_failure with
      | None -> ()
      | Some key ->
          Printf.eprintf "wsc fuzz: case %d failed [%s]\n%!" c.H.Campaign.c_index
            key
    in
    let report = H.Campaign.run ~on_case cfg in
    print_string (H.Campaign.to_string report);
    Option.iter (fun path -> write_json path (H.Campaign.to_json report)) json_out;
    if H.Campaign.crashes report > 0 then exit 1;
    Ok ()
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Generate seeded random stencil programs and cross-check three \
          executions of each (reference interpreter, mid-level interpretation, \
          fabric simulation) plus a print/parse fixpoint at every pass \
          boundary; failing cases are reduced and dumped as crash artifacts.  \
          With $(b,--emit-corpus), just write the cases as .mlir files.")
    Term.(
      term_result
        (const run $ fuzz_count_arg $ fuzz_seed_arg $ machine_arg $ crash_dir_arg
       $ inject_bug_arg $ mwfaults_fuzz_arg $ reduce_budget_arg $ fuzz_json_arg
       $ emit_corpus_arg))

let crash_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"CRASH"
        ~doc:"A crash directory (or its report.json) written by wsc fuzz.")

let reduce_cmd =
  let run path machine reduce_budget json_out =
    match H.Artifact.load path with
    | Error msg -> Error (`Msg ("reduce: " ^ msg))
    | Ok a ->
        let inject_bug = a.H.Artifact.inject_bug in
        let key_of q =
          match (H.Oracle.check ~inject_bug ~machine q).H.Oracle.failure with
          | Some f -> Some (H.Oracle.failure_key f)
          | None -> None
        in
        if key_of a.H.Artifact.program <> Some a.H.Artifact.key then
          Error
            (`Msg
              (Printf.sprintf
                 "reduce: crash %s does not reproduce failure [%s]"
                 (H.Artifact.name a) a.H.Artifact.key))
        else begin
          (* restart from the stored reduction when one exists *)
          let start =
            match a.H.Artifact.reduced with
            | Some r -> r
            | None -> a.H.Artifact.program
          in
          let r =
            H.Reduce.reduce ~max_checks:reduce_budget
              ~still_fails:(fun q -> key_of q = Some a.H.Artifact.key)
              start
          in
          let original_size = H.Fuzz.program_size a.H.Artifact.program in
          let reduced_size = H.Fuzz.program_size r.H.Reduce.reduced in
          let parent =
            (* the artifact lives in <crash_dir>/<name>/; recover
               <crash_dir> from either form of the argument *)
            if Sys.file_exists path && Sys.is_directory path then
              Filename.dirname path
            else Filename.dirname (Filename.dirname path)
          in
          let dir =
            H.Artifact.save ~dir:parent
              { a with H.Artifact.reduced = Some r.H.Reduce.reduced }
          in
          Printf.printf
            "reduced %s [%s]: size %d -> %d (%d steps, %d oracle checks)\n"
            (H.Artifact.name a) a.H.Artifact.key original_size reduced_size
            r.H.Reduce.steps r.H.Reduce.checks;
          Printf.printf "  program: %s\n" (H.Fuzz.describe a.H.Artifact.program);
          Printf.printf "  reduced: %s\n" (H.Fuzz.describe r.H.Reduce.reduced);
          Printf.printf "  updated %s\n" dir;
          (match json_out with
          | Some out ->
              write_json out
                (Wsc_trace.Json.summary ~tool:"reduce"
                   ~config:
                     [
                       ("crash", Wsc_trace.Json.String (H.Artifact.name a));
                       ("key", Wsc_trace.Json.String a.H.Artifact.key);
                     ]
                   ~results:
                     [
                       Wsc_trace.Json.Obj
                         [
                           ("original_size", Wsc_trace.Json.Int original_size);
                           ("reduced_size", Wsc_trace.Json.Int reduced_size);
                           ("steps", Wsc_trace.Json.Int r.H.Reduce.steps);
                           ("checks", Wsc_trace.Json.Int r.H.Reduce.checks);
                           ( "reduced",
                             H.Fuzz.program_to_json r.H.Reduce.reduced );
                         ];
                     ])
          | None -> ());
          Ok ()
        end
  in
  Cmd.v
    (Cmd.info "reduce"
       ~doc:
         "Re-run the differential oracle on a crash artifact and shrink the \
          failing program to a minimal reproducer (delta debugging), updating \
          the artifact in place.")
    Term.(
      term_result
        (const run $ crash_arg $ machine_arg $ reduce_budget_arg $ fuzz_json_arg))

(* ---------------- serve / batch ---------------- *)

module Serve = Wsc_serve

let serve_domains_arg =
  Arg.(
    value & opt int 1
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Worker domains in the persistent compile pool (spawned once, \
           never per request).")

let cache_capacity_arg =
  Arg.(
    value & opt int Serve.Engine.default_capacity
    & info [ "cache-capacity" ] ~docv:"N"
        ~doc:"Compile-cache capacity in entries (LRU eviction past it).")

let serve_timeout_arg =
  Arg.(
    value & opt float Serve.Engine.default_timeout_s
    & info [ "timeout" ] ~docv:"SECONDS"
        ~doc:
          "Default per-request compile deadline; a request's own \
           $(b,timeout_s) field overrides it.")

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          "Listen on a Unix-domain socket at PATH instead of stdio \
           (concurrent clients are multiplexed; the socket file is removed \
           on shutdown).")

let serve_trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace of every request's phases (queue wait, \
           parse, per-pass compile, emit; one track per worker) at shutdown.")

let tuned_cache_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "tuned-cache" ] ~docv:"FILE"
        ~doc:
          "Load a tuned-config store (written by $(b,wsc tune --save)); \
           requests whose program hash has an entry compile under their \
           tuned options, counted as tuned hits in stats and the shutdown \
           line.")

let load_tuned (path : string option) :
    (Serve.Tuned.t option, [ `Msg of string ]) result =
  match path with
  | None -> Ok None
  | Some p -> (
      match Serve.Tuned.load_file p with
      | Ok t -> Ok (Some t)
      | Error msg -> Error (`Msg ("--tuned-cache: " ^ msg)))

let serve_cmd =
  let run domains capacity timeout socket trace_path tuned_path =
    match load_tuned tuned_path with
    | Error _ as e -> e
    | Ok tuned ->
        Serve.Server.install_signal_handlers ();
        let cfg =
          {
            Serve.Server.domains;
            capacity;
            timeout_s = timeout;
            options = pipeline_options;
            transport =
              (match socket with
              | Some path -> Serve.Server.Unix_socket path
              | None -> Serve.Server.Stdio);
            trace_path;
            tuned;
          }
        in
        ignore (Serve.Server.run cfg);
        Ok ()
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Long-running compile service: JSON-lines requests on stdin (or \
          $(b,--socket)), one JSON-lines response per request, compiles \
          fanned out across a persistent pool of worker domains with a \
          content-addressed LRU cache in front.  SIGINT/SIGTERM, a \
          $(b,shutdown) request or EOF all drain in-flight work and exit 0.")
    Term.(
      term_result
        (const run $ serve_domains_arg $ cache_capacity_arg $ serve_timeout_arg
       $ socket_arg $ serve_trace_arg $ tuned_cache_arg))

let manifest_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"MANIFEST"
        ~doc:
          "Manifest file: one .mlir path per line (relative to the \
           manifest), # comments allowed.")

let repeat_arg =
  Arg.(
    value & opt int 1
    & info [ "repeat" ] ~docv:"N"
        ~doc:
          "Submit the whole manifest N times; repeats hit the compile cache.")

let batch_json_arg = json_arg ~doc:"Also write the batch report as JSON."

let dump_requests_arg =
  Arg.(
    value & flag
    & info [ "dump-requests" ]
        ~doc:
          "Instead of compiling, print each manifest entry as a serve-protocol \
           compile request line on stdout — pipe into $(b,wsc serve).")

let batch_cmd =
  let run manifest domains capacity timeout repeat json_out dump trace_path
      tuned_path =
    let paths = Serve.Batch.manifest_paths manifest in
    if dump then begin
      Serve.Batch.dump_requests stdout paths;
      Ok ()
    end
    else begin
      match load_tuned tuned_path with
      | Error _ as e -> e
      | Ok tuned ->
      Serve.Server.install_signal_handlers ();
      let cfg =
        {
          Serve.Batch.domains;
          capacity;
          timeout_s = timeout;
          options = pipeline_options;
          repeat;
          trace_path;
          tuned;
        }
      in
      let r = Serve.Batch.run cfg paths in
      let s = r.Serve.Batch.rp_cache in
      Printf.printf
        "batch: %d file(s), %d ok, %d error(s), %d cancelled in %.2f s\n"
        r.Serve.Batch.rp_total r.Serve.Batch.rp_ok r.Serve.Batch.rp_errors
        r.Serve.Batch.rp_cancelled r.Serve.Batch.rp_wall_s;
      Printf.printf
        "  cache: %d hit / %d miss / %d evicted (hit-rate %.1f%%, %d/%d \
         entries)\n"
        s.Serve.Cache.hits s.Serve.Cache.misses s.Serve.Cache.evictions
        (100.0 *. Serve.Cache.hit_rate s)
        s.Serve.Cache.entries s.Serve.Cache.capacity;
      if tuned <> None then
        Printf.printf "  tuned: %d hit / %d miss\n" r.Serve.Batch.rp_tuned_hits
          r.Serve.Batch.rp_tuned_misses;
      List.iter
        (fun (e : Serve.Batch.entry) ->
          if e.Serve.Batch.en_status <> "ok" then
            Printf.printf "  %s (round %d): %s%s\n" e.Serve.Batch.en_path
              e.Serve.Batch.en_round e.Serve.Batch.en_status
              (match e.Serve.Batch.en_message with
              | Some m -> ": " ^ m
              | None -> ""))
        r.Serve.Batch.rp_entries;
      Option.iter (fun path -> write_json path (Serve.Batch.report_to_json cfg r))
        json_out;
      if r.Serve.Batch.rp_errors > 0 then exit 1;
      Ok ()
    end
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Compile every file in a manifest through the serve engine \
          (persistent worker pool + compile cache) and report per-file \
          outcomes; $(b,--repeat) demonstrates cache hits, \
          $(b,--dump-requests) renders the manifest as serve protocol lines.")
    Term.(
      term_result
        (const run $ manifest_arg $ serve_domains_arg $ cache_capacity_arg
       $ serve_timeout_arg $ repeat_arg $ batch_json_arg $ dump_requests_arg
       $ serve_trace_arg $ tuned_cache_arg))

(* ---------------- tune ---------------- *)

let tune_seed_arg =
  Arg.(
    value & opt int 1
    & info [ "seed" ] ~docv:"SEED"
        ~doc:"Search seed; reruns with the same seed replay byte-for-byte.")

let tune_screen_arg =
  Arg.(
    value & opt int Wsc_tune.Tune.default_config.Wsc_tune.Tune.screen
    & info [ "screen" ] ~docv:"N"
        ~doc:"Candidates entering steady-state screening.")

let tune_extent_arg =
  Arg.(
    value & opt int Wsc_tune.Tune.default_config.Wsc_tune.Tune.extent
    & info [ "extent" ] ~docv:"N" ~doc:"Proxy-grid PE extent per side.")

let tune_no_oracle_arg =
  Arg.(
    value & flag
    & info [ "no-oracle" ]
        ~doc:
          "Skip the differential-oracle gate (the winner is then reported \
           but can never be saved — tuned configs do not ship without an \
           oracle pass).")

let tune_json_arg = json_arg ~doc:"Write the report as JSON."

let tune_save_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "save" ] ~docv:"FILE"
        ~doc:
          "Register the oracle-validated winner into the tuned-config store \
           at FILE (created, or loaded and extended), for $(b,wsc serve) / \
           $(b,wsc batch) $(b,--tuned-cache).")

let tune_cmd =
  let run bench machine seed screen extent no_oracle json_out save_path =
    let* d = find_bench ~cmd:"tune" bench in
    let module T = Wsc_tune.Tune in
    let config =
      { T.seed; screen; extent; machine; oracle = not no_oracle }
    in
    let r = T.run ~config d in
    Printf.printf "tune %s on %s: space %d, screened %d\n" r.T.r_bench
      r.T.r_machine r.T.r_space_size r.T.r_screened;
    Printf.printf "  default: %.1f cycles/iter\n" r.T.r_default_cycles;
    Printf.printf "  tuned:   %.1f cycles/iter (%+.1f%%)\n" r.T.r_tuned_cycles
      r.T.r_improvement_pct;
    Printf.printf "  config:  %s\n"
      (Wsc_core.Pipeline.options_to_string r.T.r_tuned_options);
    (match r.T.r_oracle_ok with
    | Some true -> Printf.printf "  oracle:  PASS (%d check(s))\n" r.T.r_oracle_checks
    | Some false ->
        Printf.printf "  oracle:  FAIL (%d check(s)%s)\n" r.T.r_oracle_checks
          (match r.T.r_oracle_failure with Some m -> ": " ^ m | None -> "")
    | None -> Printf.printf "  oracle:  skipped\n");
    Option.iter (fun path -> write_json path (T.to_json r)) json_out;
    (match save_path with
    | None -> ()
    | Some path ->
        let store =
          if Sys.file_exists path then
            match Serve.Tuned.load_file path with
            | Ok s -> s
            | Error msg -> failwith ("--save: " ^ msg)
          else Serve.Tuned.create ()
        in
        if T.register store r then begin
          Serve.Tuned.save_file store path;
          Printf.printf "saved tuned config to %s (%d entr%s)\n" path
            (Serve.Tuned.size store)
            (if Serve.Tuned.size store = 1 then "y" else "ies")
        end
        else Printf.printf "not saved: winner lacks an oracle pass or beats nothing\n");
    if r.T.r_oracle_ok = Some false then exit 1;
    if r.T.r_tuned_cycles > r.T.r_default_cycles then exit 1;
    Ok ()
  in
  Cmd.v
    (Cmd.info "tune"
       ~doc:
         "Search the pipeline-option space for a benchmark (steady-state \
          screening on the fabric simulator, then the differential-oracle \
          gate) and report the tuned config; \
          $(b,--save) ships validated winners into a tuned-config store \
          that $(b,wsc serve) / $(b,wsc batch) consult.")
    Term.(
      term_result
        (const run $ bench_arg $ machine_arg $ tune_seed_arg $ tune_screen_arg
       $ tune_extent_arg $ tune_no_oracle_arg
       $ tune_json_arg $ tune_save_arg))

(* ---------------- perf ---------------- *)

let perf_cmd =
  let run bench size machine =
    let* d = find_bench ~cmd:"perf" bench in
    let r = Wsc_perf.Wse_perf.measure ~machine ~size d in
    Format.printf "%a@." Wsc_perf.Wse_perf.pp_measurement r;
    Ok ()
  in
  Cmd.v
    (Cmd.info "perf" ~doc:"Report simulated throughput.")
    Term.(term_result (const run $ bench_arg $ size_arg $ machine_arg))

(* ---------------- ir ---------------- *)

let stage_arg =
  Arg.(
    value & opt string "csl"
    & info [ "stage" ] ~docv:"STAGE"
        ~doc:"Pipeline stage to print: stencil, distributed, prefetch, \
              csl-stencil, bufferized, csl.")

let ir_cmd =
  let run bench input size iterations stage =
    let* _, m = program_of ~bench ~input ~size ~iterations in
    let o = pipeline_options in
    let* passes =
      match stage with
      | "stencil" -> Ok []
      | "distributed" -> Ok (Wsc_core.Pipeline.frontend_passes o)
      | "prefetch" ->
          Ok
            (Wsc_core.Pipeline.frontend_passes o
            @ [ List.hd (Wsc_core.Pipeline.middle_passes o) ])
      | "csl-stencil" ->
          Ok
            (Wsc_core.Pipeline.frontend_passes o
            @ (Wsc_core.Pipeline.middle_passes o |> List.filteri (fun i _ -> i < 2))
            )
      | "bufferized" ->
          Ok (Wsc_core.Pipeline.frontend_passes o @ Wsc_core.Pipeline.middle_passes o)
      | "csl" -> Ok (Wsc_core.Pipeline.passes o)
      | s -> Error (`Msg ("unknown stage " ^ s))
    in
    let m = Wsc_ir.Pass.run_pipeline passes m in
    Wsc_ir.Printer.print_op m;
    Ok ()
  in
  Cmd.v
    (Cmd.info "ir" ~doc:"Print the IR after a pipeline stage.")
    Term.(
      term_result
        (const run $ bench_arg $ input_arg $ size_arg $ iters_arg $ stage_arg))

(* ---------------- multiwafer ---------------- *)

let wafers_conv =
  let parse s =
    match String.split_on_char 'x' s with
    | [ a; b ] -> (
        match (int_of_string_opt a, int_of_string_opt b) with
        | Some wx, Some wy when wx >= 1 && wy >= 1 -> Ok (wx, wy)
        | _ -> Error (`Msg (Printf.sprintf "bad wafer grid '%s': expected WxH" s)))
    | _ -> Error (`Msg (Printf.sprintf "bad wafer grid '%s': expected WxH" s))
  in
  Arg.conv (parse, fun fmt (w, h) -> Format.fprintf fmt "%dx%d" w h)

let wafers_arg =
  Arg.(
    value & opt wafers_conv (2, 1)
    & info [ "w"; "wafers" ] ~docv:"WxH"
        ~doc:"Wafer grid to decompose over (e.g. 2x1, 2x2).")

let mw_latency_arg =
  Arg.(
    value
    & opt float Wsc_multiwafer.Interconnect.default.latency_s
    & info [ "latency" ] ~docv:"S"
        ~doc:"Modeled inter-wafer interconnect latency, seconds per epoch.")

let mw_bandwidth_arg =
  Arg.(
    value
    & opt float Wsc_multiwafer.Interconnect.default.bandwidth_bytes_per_s
    & info [ "bandwidth" ] ~docv:"B/S"
        ~doc:"Modeled inter-wafer interconnect bandwidth, bytes per second.")

let mw_no_check_arg =
  Arg.(
    value & flag
    & info [ "no-check" ]
        ~doc:
          "Skip the bit-identity check against the undecomposed \
           single-wafer simulation.")

let mw_json_arg =
  json_arg
    ~doc:
      "Write a machine-readable summary (plan, per-epoch cycles, \
       interconnect charge, compile-cache counters, bit-identity)."

let mw_faults_arg =
  Arg.(
    value & flag
    & info [ "faults" ]
        ~doc:
          "Run a wafer-level fault campaign (model × rate × seed sweep) \
           instead of a single co-simulation: inter-wafer halo drops and \
           corruption, wafer crashes and losses, interconnect latency \
           spikes — with checkpoint/rollback recovery unless \
           $(b,--no-resilience).")

let wafer_kinds_arg =
  Arg.(
    value
    & opt
        (list
           (kind_conv ~noun:"wafer fault kind" Faults.Wafer.all_kinds
              Faults.Wafer.kind_to_string))
        Faults.Wafer.all_kinds
    & info [ "wafer-kinds" ] ~docv:"KINDS"
        ~doc:
          "Comma-separated wafer fault models to sweep: halo-drop, \
           halo-corrupt, crash, loss, spike (default: all).")

let mw_cadence_arg =
  Arg.(
    value
    & opt int Wsc_faults.Faults.Wafer.default_resilience.checkpoint_cadence
    & info [ "cadence" ] ~docv:"EPOCHS"
        ~doc:"Checkpoint cadence in epochs (resilient campaigns).")

let mw_max_retries_arg =
  Arg.(
    value
    & opt int Wsc_faults.Faults.Wafer.default_resilience.max_retries
    & info [ "max-retries" ] ~docv:"N"
        ~doc:
          "Retry budget per epoch before a faulty wafer is declared dead \
           and the run degrades.")

let multiwafer_cmd =
  let module MW = Wsc_multiwafer.Cosim in
  let module MC = Wsc_multiwafer.Mwcampaign in
  let module Wf = Wsc_faults.Faults.Wafer in
  let module D = Wsc_multiwafer.Decompose in
  let module IC = Wsc_multiwafer.Interconnect in
  let module J = Wsc_trace.Json in
  let run bench size iterations machine wafers latency bandwidth no_check
      json_out faults_mode wafer_kinds rates seeds no_resilience cadence
      max_retries =
    let* { B.id; _ } = find_bench ~cmd:"multiwafer" bench in
    if faults_mode then begin
      let report =
        MC.run ~machine ?iterations ~kinds:wafer_kinds
          ~resilience:{ Wf.checkpoint_cadence = cadence; max_retries }
          ~bench:id ~size ~wafers ~resilient:(not no_resilience) ~rates ~seeds
          ()
      in
      print_string (MC.to_string report);
      Option.iter (fun path -> write_json path (MC.to_json report)) json_out;
      if List.exists (MC.unrecovered report) report.MC.cells then exit 1;
      Ok ()
    end
    else begin
    let p = B.program ?iterations id size in
    let interconnect =
      { IC.latency_s = latency; bandwidth_bytes_per_s = bandwidth }
    in
    let r = MW.run ~interconnect ~machine ~wafers p in
    let wx, wy = wafers in
    let nx, ny, nz = p.P.extents in
    Printf.printf
      "multiwafer %s: %dx%dx%d interior over %dx%d wafers (%d slice \
       shape(s)), %d epoch(s)\n"
      p.P.pname nx ny nz wx wy r.MW.distinct_programs r.MW.epochs;
    List.iter
      (fun (s : D.slice) ->
        Printf.printf
          "  wafer (%d,%d): origin (%d,%d) extent %dx%d, %d swap(s), %d \
           halo scalar(s)/epoch\n"
          s.D.wi s.D.wj s.D.x0 s.D.y0 s.D.snx s.D.sny (List.length s.D.swaps)
          (D.slice_exchange_scalars s))
      r.MW.plan.D.slices;
    let cs = r.MW.cache in
    Printf.printf
      "  device %.0f cycles; interconnect %.3e s for %d byte(s); compile \
       cache %d hit (%d dedup) / %d miss\n"
      r.MW.device_cycles r.MW.interconnect_s r.MW.exchange_bytes
      cs.Wsc_serve.Cache.hits cs.Wsc_serve.Cache.dedup_hits
      cs.Wsc_serve.Cache.misses;
    let identical =
      if no_check then None
      else begin
        let refs = MW.reference ~machine p in
        let ok = MW.grids_bit_identical refs r.MW.grids in
        Printf.printf "  vs single wafer: %s\n"
          (if ok then "BIT-IDENTICAL" else "MISMATCH");
        Some ok
      end
    in
    (match json_out with
    | None -> ()
    | Some path ->
        write_json path
          (J.summary ~tool:"multiwafer"
             ~config:
               [
                 ("bench", J.String p.P.pname);
                 ("machine", J.String machine.name);
                 ("size", J.String (B.size_to_string size));
                 ("wafers", J.String (Printf.sprintf "%dx%d" wx wy));
                 ("extents", J.List [ J.Int nx; J.Int ny; J.Int nz ]);
                 ("latency_s", J.Float latency);
                 ("bandwidth_bytes_per_s", J.Float bandwidth);
               ]
             ~results:
               [
                 J.Obj
                   [
                     ("epochs", J.Int r.MW.epochs);
                     ("distinct_programs", J.Int r.MW.distinct_programs);
                     ("device_cycles", J.Float r.MW.device_cycles);
                     ("interconnect_s", J.Float r.MW.interconnect_s);
                     ("exchange_bytes", J.Int r.MW.exchange_bytes);
                     ("cache_hits", J.Int cs.Wsc_serve.Cache.hits);
                     ("cache_dedup_hits", J.Int cs.Wsc_serve.Cache.dedup_hits);
                     ("cache_misses", J.Int cs.Wsc_serve.Cache.misses);
                     ("wall_s", J.Float r.MW.wall_s);
                     ( "bit_identical",
                       match identical with
                       | None -> J.Null
                       | Some b -> J.Bool b );
                   ];
               ]));
    if identical = Some false then exit 1;
    Ok ()
    end
  in
  Cmd.v
    (Cmd.info "multiwafer"
       ~doc:
         "Decompose a benchmark across N simulated wafers, co-simulate them \
          one at a time, and check bit-identity vs a single wafer; with \
          $(b,--faults), sweep wafer-level fault campaigns with \
          checkpoint/rollback recovery.")
    Term.(
      term_result
        (const run $ bench_arg $ size_arg $ iters_arg $ machine_arg
       $ wafers_arg $ mw_latency_arg $ mw_bandwidth_arg $ mw_no_check_arg
       $ mw_json_arg $ mw_faults_arg $ wafer_kinds_arg $ rates_arg
       $ seeds_arg $ no_resilience_arg $ mw_cadence_arg $ mw_max_retries_arg))

let () =
  let info =
    Cmd.info "wsc" ~version:"1.0.0"
      ~doc:"An MLIR-style lowering pipeline for stencils at wafer scale."
  in
  let rc =
    try
      Cmd.eval ~catch:false
        (Cmd.group info
           [
             compile_cmd;
             simulate_cmd;
             trace_cmd;
             faults_cmd;
             fuzz_cmd;
             reduce_cmd;
             serve_cmd;
             batch_cmd;
             tune_cmd;
             multiwafer_cmd;
             perf_cmd;
             ir_cmd;
           ])
    with
    | Wsc_wse.Fabric.Sim_error msg
    | Wsc_wse.Host.Host_error msg
    | Wsc_frontends.Stencil_program.Reference_refused msg
    | Wsc_core.To_csl_stencil.Lowering_error msg
    | Wsc_core.To_actors.Actor_error msg
    | Wsc_multiwafer.Decompose.Decompose_error msg
    | Wsc_multiwafer.Cosim.Cosim_error msg ->
        prerr_endline ("wsc: " ^ msg);
        2
    | Wsc_ir.Parser.Parse_error (_, msg) ->
        (* msg already names the offending token's line/column *)
        prerr_endline ("wsc: parse error: " ^ msg);
        2
    | Wsc_ir.Pass.Pass_failed (pass, exn) ->
        prerr_endline
          (Printf.sprintf "wsc: pass %s failed: %s" pass (Printexc.to_string exn));
        2
  in
  exit rc
