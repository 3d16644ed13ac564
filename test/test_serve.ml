(* Tests for the compile service (lib/serve): the LRU cache's counters
   and eviction order, single-flight dedup of concurrent misses on one
   key, the persistent worker pool's spawn discipline and
   failure propagation, the content-addressed cache key's invariance
   under the print/parse fixpoint, byte-identity of cache hits at 1/2/4
   domains, the JSON-lines protocol, per-request timeouts, corpus
   emission determinism, the batch driver, and a live server end-to-end
   over a Unix socket. *)

module S = Wsc_serve
module J = Wsc_trace.Json
module H = Wsc_harden
module Pipeline = Wsc_core.Pipeline

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

(** A small deterministic corpus of real stencil modules. *)
let source i = H.Corpus.case_contents ~seed:7 ~index:i

(* ------------------------------------------------------------------ *)
(* cache                                                               *)
(* ------------------------------------------------------------------ *)

let test_cache_basics () =
  let c = S.Cache.create ~capacity:2 in
  check "miss on empty" true (S.Cache.find c "a" = None);
  S.Cache.add c "a" 1;
  S.Cache.add c "b" 2;
  (* touching "a" makes "b" the LRU, so inserting "c" evicts "b" *)
  check "find a" true (S.Cache.find c "a" = Some 1);
  S.Cache.add c "c" 3;
  check "b evicted" true (S.Cache.find c "b" = None);
  check "a survives" true (S.Cache.find c "a" = Some 1);
  check "c present" true (S.Cache.find c "c" = Some 3);
  let s = S.Cache.stats c in
  checki "hits" 3 s.S.Cache.hits;
  checki "misses" 2 s.S.Cache.misses;
  checki "insertions" 3 s.S.Cache.insertions;
  checki "evictions" 1 s.S.Cache.evictions;
  checki "entries" 2 s.S.Cache.entries;
  check "entries <= capacity" true (s.S.Cache.entries <= s.S.Cache.capacity);
  check "hit rate" true (abs_float (S.Cache.hit_rate s -. (3.0 /. 5.0)) < 1e-9)

(** Spin until [c] has a blocked waiter (bounded; the waiter domain is
    between [acquire] and being woken). *)
let wait_for_waiter c =
  let rec go n =
    if S.Cache.waiters c = 0 then
      if n = 0 then Alcotest.fail "waiter never blocked"
      else begin
        Unix.sleepf 0.001;
        go (n - 1)
      end
  in
  go 2000

let test_cache_single_flight () =
  let c = S.Cache.create ~capacity:4 in
  (* first caller claims the key: counted as the one miss *)
  (match S.Cache.acquire c "k" with
  | `Claimed -> ()
  | `Hit _ | `Dedup _ -> Alcotest.fail "first acquire must claim");
  (* a concurrent caller blocks until the claimant releases *)
  let d =
    Domain.spawn (fun () ->
        match S.Cache.acquire c "k" with
        | `Dedup v -> v
        | `Hit _ -> Alcotest.fail "in-flight value must arrive as `Dedup"
        | `Claimed -> Alcotest.fail "second acquire must not re-claim")
  in
  wait_for_waiter c;
  S.Cache.release c "k" (Some 42);
  checki "served the in-flight value" 42 (Domain.join d);
  let s = S.Cache.stats c in
  checki "one miss (the claim)" 1 s.S.Cache.misses;
  checki "dedup counted as a hit" 1 s.S.Cache.hits;
  checki "and separately as a dedup hit" 1 s.S.Cache.dedup_hits;
  checki "no waiter left" 0 (S.Cache.waiters c);
  (* once resolved, later acquires are plain hits, not dedups *)
  (match S.Cache.acquire c "k" with
  | `Hit 42 -> ()
  | _ -> Alcotest.fail "resolved key must be a plain hit");
  checki "plain hit is not a dedup" 1 (S.Cache.stats c).S.Cache.dedup_hits

let test_cache_single_flight_failure () =
  let c = S.Cache.create ~capacity:4 in
  (match S.Cache.acquire c "k" with
  | `Claimed -> ()
  | _ -> Alcotest.fail "first acquire must claim");
  let d = Domain.spawn (fun () -> S.Cache.acquire c "k") in
  wait_for_waiter c;
  (* the claimant's compute failed: nothing cached, a waiter re-claims *)
  S.Cache.release c "k" None;
  (match Domain.join d with
  | `Claimed -> ()
  | `Hit _ | `Dedup _ -> Alcotest.fail "waiter must re-claim after a failure");
  S.Cache.release c "k" (Some 7);
  (match S.Cache.acquire c "k" with
  | `Hit 7 -> ()
  | _ -> Alcotest.fail "retry's value must be cached");
  let s = S.Cache.stats c in
  checki "both claims are misses" 2 s.S.Cache.misses;
  checki "no dedup on the failure path" 0 s.S.Cache.dedup_hits

let test_cache_replace_and_clamp () =
  let c = S.Cache.create ~capacity:0 in
  (* capacity clamps to 1 *)
  S.Cache.add c "a" 1;
  S.Cache.add c "a" 10;
  check "replaced" true (S.Cache.find c "a" = Some 10);
  let s = S.Cache.stats c in
  checki "replace counts as insertion" 2 s.S.Cache.insertions;
  checki "replace does not evict" 0 s.S.Cache.evictions;
  checki "one entry" 1 s.S.Cache.entries;
  S.Cache.add c "b" 2;
  checki "clamped capacity evicts" 1 (S.Cache.stats c).S.Cache.evictions

(* ------------------------------------------------------------------ *)
(* pool                                                                *)
(* ------------------------------------------------------------------ *)

(** The pool must spawn exactly [domains] domains per pool, however many
    jobs run — the regression guard against spawn-per-request. *)
let test_pool_spawn_discipline () =
  let before = S.Pool.domains_spawned () in
  let hits = Atomic.make 0 in
  let p = S.Pool.create ~domains:2 (fun _i () -> Atomic.incr hits) in
  for _ = 1 to 100 do
    check "submit accepted" true (S.Pool.submit p ())
  done;
  S.Pool.drain p;
  checki "all jobs ran" 100 (Atomic.get hits);
  S.Pool.shutdown p;
  checki "exactly 2 domains spawned for 100 jobs" 2
    (S.Pool.domains_spawned () - before);
  check "submit refused after shutdown" false (S.Pool.submit p ())

exception Boom

let test_pool_failure_reraised () =
  let p = S.Pool.create ~domains:1 (fun _i bad -> if bad then raise Boom) in
  ignore (S.Pool.submit p false);
  ignore (S.Pool.submit p true);
  ignore (S.Pool.submit p false);
  S.Pool.drain p;
  (* the poisoned job must not kill the pool before the queue drains,
     and shutdown must surface it *)
  match S.Pool.shutdown p with
  | () -> Alcotest.fail "shutdown should re-raise the job exception"
  | exception Boom -> ()

(** Bounded retry: a job that fails its first attempts is requeued with
    backoff and eventually succeeds; one that always fails lands in
    [on_exhausted] instead of poisoning the pool.  Per-job attempt
    counters make the outcome deterministic across two domains. *)
let test_pool_retry_and_exhaustion () =
  let attempts = Array.init 4 (fun _ -> Atomic.make 0) in
  let exhausted = Atomic.make (-1) in
  let p =
    S.Pool.create ~domains:2 ~max_retries:2
      ~on_exhausted:(fun _i job _e -> Atomic.set exhausted job)
      (fun _i job ->
        let n = Atomic.fetch_and_add attempts.(job) 1 in
        (* job 0 succeeds at once, 1 and 2 need retries, 3 never works *)
        match job with
        | 1 when n < 1 -> raise Boom
        | 2 when n < 2 -> raise Boom
        | 3 -> raise Boom
        | _ -> ())
  in
  List.iter (fun j -> ignore (S.Pool.submit p j)) [ 0; 1; 2; 3 ];
  S.Pool.drain p;
  checki "job 1 ran twice" 2 (Atomic.get attempts.(1));
  checki "job 2 ran three times" 3 (Atomic.get attempts.(2));
  checki "job 3 exhausted its budget" 3 (Atomic.get attempts.(3));
  checki "on_exhausted saw job 3" 3 (Atomic.get exhausted);
  (* retried attempts: job 1 once, job 2 twice, job 3 twice *)
  checki "retries counted" 5 (S.Pool.retries p);
  (* every failed attempt restarts a worker: 1 + 2 + 3 *)
  checki "worker restarts counted" 6 (S.Pool.worker_restarts p);
  match S.Pool.shutdown p with
  | () -> ()
  | exception Boom -> Alcotest.fail "exhaustion must not poison the pool"

(* ------------------------------------------------------------------ *)
(* cache key: canonical under print->parse->print                      *)
(* ------------------------------------------------------------------ *)

(** The key is content-addressed over the *canonical* module text, so
    formatting noise (comments, trailing whitespace) and a full
    print/parse round trip all map to the same key, while a different
    pipeline config never does. *)
let prop_key_canonical =
  QCheck.Test.make ~count:15 ~name:"cache key canonical under reprint"
    QCheck.(pair (int_bound 1000) (int_bound 30))
    (fun (seed, index) ->
      let src = H.Corpus.case_contents ~seed ~index in
      let eng = S.Engine.create () in
      let key s =
        match S.Engine.key_of_source eng s with
        | Ok k -> k
        | Error e -> QCheck.Test.fail_reportf "keying failed: %s" e.S.Engine.e_message
      in
      let k = key src in
      let with_comment = "// formatting noise\n" ^ src ^ "\n\n" in
      let reprinted =
        Wsc_ir.Printer.op_to_string (Wsc_ir.Parser.parse_string src)
      in
      (* every field the autotuner searches must reach the cache key:
         flipping any one of them yields a distinct key, and re-keying
         under equal options yields an equal key *)
      let d = Pipeline.default_options in
      let deviations =
        [
          { d with Pipeline.inline_stencils = not d.Pipeline.inline_stencils };
          { d with Pipeline.use_varith = not d.Pipeline.use_varith };
          {
            d with
            Pipeline.promote_coefficients = not d.Pipeline.promote_coefficients;
          };
          {
            d with
            Pipeline.one_shot_reduction = not d.Pipeline.one_shot_reduction;
          };
          { d with Pipeline.fuse_fmac = not d.Pipeline.fuse_fmac };
          { d with Pipeline.fuse_fmac_pass = not d.Pipeline.fuse_fmac_pass };
          {
            d with
            Pipeline.comm_budget_bytes = d.Pipeline.comm_budget_bytes / 2;
          };
          { d with Pipeline.num_chunks_override = Some 2 };
        ]
      in
      let key_opts o =
        match S.Engine.key_of_source eng ~options:o src with
        | Ok k' -> k'
        | Error e ->
            QCheck.Test.fail_reportf "keying failed: %s" e.S.Engine.e_message
      in
      let deviant_keys = List.map key_opts deviations in
      List.for_all (fun k' -> k' <> k) deviant_keys
      && List.length (List.sort_uniq compare deviant_keys)
         = List.length deviant_keys
      && List.for_all2 ( = ) deviant_keys (List.map key_opts deviations)
      && k = key with_comment && k = key reprinted)

(* ------------------------------------------------------------------ *)
(* engine: hits byte-identical to cold compiles, at 1/2/4 domains      *)
(* ------------------------------------------------------------------ *)

let payload (r : S.Engine.result) : string =
  match
    S.Protocol.response_payload (S.Protocol.compile_response ~id:0 r)
  with
  | Some p -> p
  | None -> Alcotest.fail "expected an ok compile payload"

let cache_of (r : S.Engine.result) =
  match r.S.Engine.cache with
  | Some `Hit -> "hit"
  | Some `Miss -> "miss"
  | None -> "none"

(** Compile [sources] concurrently on [domains] workers sharing one
    engine; returns the rendered payloads in submission order. *)
let compile_all ~domains (eng : S.Engine.t) (sources : string array) :
    (string * string) array =
  let out = Array.make (Array.length sources) ("", "") in
  let p =
    S.Pool.create ~domains (fun _i (slot, src) ->
        let r = S.Engine.compile_source eng src in
        out.(slot) <- (payload r, cache_of r))
  in
  Array.iteri (fun slot src -> ignore (S.Pool.submit p (slot, src))) sources;
  S.Pool.drain p;
  S.Pool.shutdown p;
  out

let test_hits_byte_identical () =
  let sources = Array.init 6 source in
  (* the CSL bytes must also be deterministic across domain counts:
     files-only view, comparable across engines (the full payload embeds
     the cold compile's wall time, which is engine-local) *)
  let files_of (p : string) : string =
    match J.of_string p with
    | Ok doc -> (
        match J.member "files" doc with
        | Some f -> J.to_string f
        | None -> Alcotest.fail "payload without files")
    | Error e -> Alcotest.fail ("payload not JSON: " ^ e)
  in
  let baseline = ref None in
  List.iter
    (fun domains ->
      let eng = S.Engine.create () in
      let cold = compile_all ~domains eng sources in
      let warm = compile_all ~domains eng sources in
      Array.iteri
        (fun i (pc, cc) ->
          let pw, cw = warm.(i) in
          check (Printf.sprintf "d%d case %d cold is miss" domains i) true
            (cc = "miss");
          check (Printf.sprintf "d%d case %d warm is hit" domains i) true
            (cw = "hit");
          check
            (Printf.sprintf "d%d case %d hit byte-identical to cold" domains i)
            true (pw = pc))
        cold;
      let s = S.Engine.cache_stats eng in
      checki
        (Printf.sprintf "d%d hits" domains)
        (Array.length sources) s.S.Cache.hits;
      checki
        (Printf.sprintf "d%d misses" domains)
        (Array.length sources) s.S.Cache.misses;
      let files = Array.map (fun (p, _) -> files_of p) cold in
      match !baseline with
      | None -> baseline := Some files
      | Some b ->
          Array.iteri
            (fun i f ->
              check
                (Printf.sprintf "d%d case %d CSL identical to 1-domain run"
                   domains i)
                true (f = b.(i)))
            files)
    [ 1; 2; 4 ]

let test_engine_errors () =
  let eng = S.Engine.create () in
  (match (S.Engine.compile_source eng "").S.Engine.outcome with
  | Error e -> check "empty is bad-request" true (e.S.Engine.e_kind = S.Engine.Bad_request)
  | Ok _ -> Alcotest.fail "empty source compiled");
  (match (S.Engine.compile_source eng "not ir at all").S.Engine.outcome with
  | Error e ->
      check "garbage is parse failure" true
        (e.S.Engine.e_kind = S.Engine.Parse_failure)
  | Ok _ -> Alcotest.fail "garbage compiled");
  (* failures are never cached *)
  ignore (S.Engine.compile_source eng "not ir at all");
  let s = S.Engine.cache_stats eng in
  checki "no insertions from failures" 0 s.S.Cache.insertions;
  (* a deadline in the past times out without caching *)
  match
    (S.Engine.compile_source eng ~timeout_s:(-1.0) (source 0)).S.Engine.outcome
  with
  | Error e -> check "timeout kind" true (e.S.Engine.e_kind = S.Engine.Timeout)
  | Ok _ -> Alcotest.fail "expired deadline compiled"

(* ------------------------------------------------------------------ *)
(* protocol                                                            *)
(* ------------------------------------------------------------------ *)

let defaults = Pipeline.default_options

let test_protocol_roundtrip () =
  let rq =
    S.Protocol.Compile
      {
        S.Protocol.rq_id = 7;
        rq_source = "x";
        rq_options =
          { defaults with Pipeline.comm_budget_bytes = 1234 };
        rq_timeout_s = Some 2.5;
      }
  in
  (match S.Protocol.request_of_string ~defaults (S.Protocol.request_to_string rq) with
  | Ok (S.Protocol.Compile c) ->
      checki "id" 7 c.S.Protocol.rq_id;
      check "source" true (c.S.Protocol.rq_source = "x");
      checki "config" 1234 c.S.Protocol.rq_options.Pipeline.comm_budget_bytes;
      check "timeout" true (c.S.Protocol.rq_timeout_s = Some 2.5)
  | _ -> Alcotest.fail "compile round trip");
  List.iter
    (fun r ->
      check "op round trip" true
        (S.Protocol.request_of_string ~defaults (S.Protocol.request_to_string r)
        = Ok r))
    [ S.Protocol.Stats 1; S.Protocol.Shutdown 2 ]

let test_protocol_errors () =
  let bad line expect_id =
    match S.Protocol.request_of_string ~defaults line with
    | Error (id, _) -> check ("id echoed: " ^ line) true (id = expect_id)
    | Ok _ -> Alcotest.failf "accepted %s" line
  in
  bad "nonsense" None;
  bad "{\"op\":\"compile\",\"source\":\"x\"}" None;
  bad "{\"id\":3,\"op\":\"noop\"}" (Some 3);
  bad "{\"id\":4,\"op\":\"compile\"}" (Some 4);
  bad "{\"id\":5,\"op\":\"compile\",\"source\":\"x\",\"config\":{\"zzz\":1}}"
    (Some 5);
  bad
    "{\"id\":6,\"op\":\"compile\",\"source\":\"x\",\"config\":{\"use_varith\":3}}"
    (Some 6)

let test_response_envelope () =
  let eng = S.Engine.create () in
  let r = S.Engine.compile_source eng (source 0) in
  let doc = S.Protocol.compile_response ~id:9 r in
  check "tool" true (J.member "tool" doc = Some (J.String "serve"));
  check "schema_version" true
    (J.member "schema_version" doc = Some (J.Int J.schema_version));
  check "id" true (S.Protocol.response_id doc = Some 9);
  check "status" true (S.Protocol.response_status doc = Some "ok");
  check "cache" true (S.Protocol.response_cache doc = Some "miss");
  check "payload present" true (S.Protocol.response_payload doc <> None);
  (* the envelope line itself must reparse *)
  check "reparses" true
    (match J.of_string (J.to_string doc) with Ok _ -> true | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* corpus emission                                                     *)
(* ------------------------------------------------------------------ *)

let tmpdir name =
  let d = Filename.concat (Filename.get_temp_dir_name ()) name in
  if not (Sys.file_exists d) then Sys.mkdir d 0o755;
  d

let test_corpus_deterministic () =
  let d1 = tmpdir "wsc-corpus-a" and d2 = tmpdir "wsc-corpus-b" in
  let p1 = H.Corpus.emit ~dir:d1 ~seed:11 ~count:4 in
  let p2 = H.Corpus.emit ~dir:d2 ~seed:11 ~count:4 in
  checki "count" 4 (List.length p1);
  List.iter2
    (fun a b ->
      check "same filename" true (Filename.basename a = Filename.basename b);
      let read p = In_channel.with_open_bin p In_channel.input_all in
      check ("byte-identical " ^ Filename.basename a) true (read a = read b);
      (* and each file is a standalone module the parser accepts *)
      ignore (Wsc_ir.Parser.parse_file a))
    p1 p2;
  check "stamped filename" true
    (Filename.basename (List.hd p1) = H.Corpus.filename ~seed:11 ~index:0)

(* ------------------------------------------------------------------ *)
(* batch                                                               *)
(* ------------------------------------------------------------------ *)

let test_batch_repeat_hits () =
  let dir = tmpdir "wsc-batch" in
  let paths = H.Corpus.emit ~dir ~seed:3 ~count:3 in
  let cfg = { S.Batch.default_config with S.Batch.domains = 1; repeat = 2 } in
  let r = S.Batch.run cfg paths in
  checki "total" 6 r.S.Batch.rp_total;
  checki "ok" 6 r.S.Batch.rp_ok;
  checki "errors" 0 r.S.Batch.rp_errors;
  checki "cache hits" 3 r.S.Batch.rp_cache.S.Cache.hits;
  checki "cache misses" 3 r.S.Batch.rp_cache.S.Cache.misses;
  (* concurrent misses on one key are single-flight ([Cache.acquire]),
     so the hit/miss totals stay exact with racing workers too — a
     repeat that races its first compile blocks and is served the
     in-flight record, counted as a (dedup) hit, never a second miss *)
  let rc =
    S.Batch.run { cfg with S.Batch.domains = 2; repeat = 3 } paths
  in
  checki "concurrent ok" 9 rc.S.Batch.rp_ok;
  checki "concurrent misses stay exact" 3 rc.S.Batch.rp_cache.S.Cache.misses;
  checki "concurrent hits stay exact" 6 rc.S.Batch.rp_cache.S.Cache.hits;
  (* unreadable files are io entries, not crashes *)
  let r2 =
    S.Batch.run
      { cfg with S.Batch.repeat = 1 }
      [ Filename.concat dir "missing.mlir" ]
  in
  checki "io errors counted" 1 r2.S.Batch.rp_errors;
  check "io status" true
    ((List.hd r2.S.Batch.rp_entries).S.Batch.en_status = "io");
  (* the report renders as the shared envelope *)
  let doc = S.Batch.report_to_json cfg r in
  check "batch tool" true (J.member "tool" doc = Some (J.String "batch"));
  check "batch schema_version" true
    (J.member "schema_version" doc = Some (J.Int J.schema_version));
  (* the cache counters render as in the stats response, dedup_hits
     included *)
  let cache =
    Option.bind (J.member "results" doc) (function
      | J.List [ res ] -> J.member "cache" res
      | _ -> None)
  in
  check "batch cache object is the shared rendering" true
    (cache
    = Some
        (S.Protocol.cache_json r.S.Batch.rp_cache
           ~tuned_hits:r.S.Batch.rp_tuned_hits
           ~tuned_misses:r.S.Batch.rp_tuned_misses));
  check "batch cache has dedup_hits" true
    (Option.bind cache (J.member "dedup_hits") = Some (J.Int 0))

let test_batch_dump_requests () =
  let dir = tmpdir "wsc-dump" in
  let paths = H.Corpus.emit ~dir ~seed:5 ~count:2 in
  let tmp = Filename.temp_file "wsc-req" ".jsonl" in
  Out_channel.with_open_bin tmp (fun oc -> S.Batch.dump_requests oc paths);
  let lines = In_channel.with_open_text tmp In_channel.input_lines in
  Sys.remove tmp;
  checki "one line per file" 2 (List.length lines);
  List.iteri
    (fun i line ->
      match S.Protocol.request_of_string ~defaults line with
      | Ok (S.Protocol.Compile c) ->
          checki "1-based id" (i + 1) c.S.Protocol.rq_id
      | _ -> Alcotest.fail "dumped line is not a compile request")
    lines

(* ------------------------------------------------------------------ *)
(* server end-to-end over a Unix socket                                *)
(* ------------------------------------------------------------------ *)

let read_line_block fd buf =
  let chunk = Bytes.create 65536 in
  let rec go () =
    match String.index_opt (Buffer.contents buf) '\n' with
    | Some i ->
        let s = Buffer.contents buf in
        let line = String.sub s 0 i in
        Buffer.clear buf;
        Buffer.add_substring buf s (i + 1) (String.length s - i - 1);
        line
    | None ->
        let n = Unix.read fd chunk 0 (Bytes.length chunk) in
        if n = 0 then Alcotest.fail "server closed the connection early";
        Buffer.add_subbytes buf chunk 0 n;
        go ()
  in
  go ()

let test_server_socket_e2e () =
  let path = Filename.concat (Filename.get_temp_dir_name ()) "wsc-test.sock" in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  S.Server.reset_stop ();
  let cfg =
    {
      S.Server.default_config with
      S.Server.domains = 2;
      transport = S.Server.Unix_socket path;
    }
  in
  let server = Domain.spawn (fun () -> S.Server.run cfg) in
  let deadline = Unix.gettimeofday () +. 5.0 in
  while not (Sys.file_exists path) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  check "socket appeared" true (Sys.file_exists path);
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let send line = ignore (Unix.write_substring fd (line ^ "\n") 0 (String.length line + 1)) in
  let src = source 1 in
  send (S.Protocol.compile_line ~id:1 ~source:src);
  send (S.Protocol.compile_line ~id:2 ~source:src);
  send "{\"id\":3,\"op\":\"stats\"}";
  let buf = Buffer.create 4096 in
  let responses = List.init 3 (fun _ -> read_line_block fd buf) in
  let parsed =
    List.map
      (fun l ->
        match J.of_string l with
        | Ok d -> d
        | Error e -> Alcotest.fail ("bad response JSON: " ^ e))
      responses
  in
  let find id =
    match List.find_opt (fun d -> S.Protocol.response_id d = Some id) parsed with
    | Some d -> d
    | None -> Alcotest.failf "no response with id %d" id
  in
  check "1 ok" true (S.Protocol.response_status (find 1) = Some "ok");
  check "2 ok" true (S.Protocol.response_status (find 2) = Some "ok");
  (* same source twice: exactly one miss and one hit, in either finish
     order, with byte-identical payloads *)
  let c1 = S.Protocol.response_cache (find 1)
  and c2 = S.Protocol.response_cache (find 2) in
  check "one miss one hit" true
    ((c1 = Some "miss" && c2 = Some "hit") || (c1 = Some "hit" && c2 = Some "miss"));
  check "hit payload identical over the wire" true
    (S.Protocol.response_payload (find 1) = S.Protocol.response_payload (find 2));
  check "stats op answered" true
    (S.Protocol.response_status (find 3) = Some "ok");
  send "{\"id\":4,\"op\":\"shutdown\"}";
  let shutdown_resp = read_line_block fd buf in
  check "shutdown acked" true
    (match J.of_string shutdown_resp with
    | Ok d -> S.Protocol.response_id d = Some 4
    | Error _ -> false);
  let served = Domain.join server in
  checki "requests counted" 4 served;
  Unix.close fd;
  check "socket removed on shutdown" false (Sys.file_exists path)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "serve"
    [
      ( "cache",
        [
          Alcotest.test_case "lru basics and counters" `Quick test_cache_basics;
          Alcotest.test_case "replace and capacity clamp" `Quick
            test_cache_replace_and_clamp;
          Alcotest.test_case "single-flight dedup of concurrent misses" `Quick
            test_cache_single_flight;
          Alcotest.test_case "failed compute wakes waiters to re-claim" `Quick
            test_cache_single_flight_failure;
        ] );
      ( "pool",
        [
          Alcotest.test_case "spawn discipline" `Quick test_pool_spawn_discipline;
          Alcotest.test_case "failure re-raised at shutdown" `Quick
            test_pool_failure_reraised;
          Alcotest.test_case "bounded retry with backoff, then exhaustion"
            `Quick test_pool_retry_and_exhaustion;
        ] );
      ( "engine",
        [
          QCheck_alcotest.to_alcotest prop_key_canonical;
          Alcotest.test_case "hits byte-identical at 1/2/4 domains" `Quick
            test_hits_byte_identical;
          Alcotest.test_case "error kinds, failures uncached, timeout" `Quick
            test_engine_errors;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "request round trip" `Quick test_protocol_roundtrip;
          Alcotest.test_case "malformed requests" `Quick test_protocol_errors;
          Alcotest.test_case "response envelope" `Quick test_response_envelope;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "seed-deterministic emission" `Quick
            test_corpus_deterministic;
        ] );
      ( "batch",
        [
          Alcotest.test_case "repeats hit the cache" `Quick test_batch_repeat_hits;
          Alcotest.test_case "dump-requests lines parse" `Quick
            test_batch_dump_requests;
        ] );
      ( "server",
        [
          Alcotest.test_case "unix socket end-to-end" `Quick
            test_server_socket_e2e;
        ] );
    ]
