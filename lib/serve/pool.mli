(** Persistent worker pool: [domains] OCaml 5 domains spawned exactly
    once per pool (the PR 6 fabric worker-pool discipline — never
    spawn-per-request), pulling jobs from a shared queue until shutdown.

    Jobs run on worker domains; the job function receives the worker's
    index (0-based) so per-worker state — e.g. a private trace collector
    — needs no locking.  A job that raises does not kill the pool: the
    exception is recorded and re-raised from {!shutdown},
    lowest-worker-index first, after every domain has been joined.

    With [max_retries > 0] the pool is resilient instead: a job whose
    worker dies mid-request (an escaped exception) is requeued with
    bounded exponential backoff up to [max_retries] times, counted by
    {!retries} / {!worker_restarts}; a job that exhausts its budget goes
    to [on_exhausted] (or, absent that, to the {!shutdown} re-raise). *)

type 'a t

(** Total worker domains ever spawned by this module — pinned by a
    regression test so a spawn-per-request bug cannot creep back in. *)
val domains_spawned : unit -> int

(** [create ~domains f] spawns exactly [domains] workers (clamped to at
    least 1) that each run [f worker_index job] on dequeued jobs.
    [max_retries] (default 0: record-and-reraise, the historical
    behavior) bounds per-job requeues after an escaped exception;
    [on_exhausted worker job exn] is called when a job's budget runs
    out (it must not raise — an exception from it is recorded like a
    job failure). *)
val create :
  ?max_retries:int ->
  ?on_exhausted:(int -> 'a -> exn -> unit) ->
  domains:int ->
  (int -> 'a -> unit) ->
  'a t

(** Jobs requeued after a worker died mid-request (0 unless
    [max_retries > 0]). *)
val retries : 'a t -> int

(** Worker recoveries from an escaped exception — one per failed
    attempt, so [worker_restarts >= retries]; the surplus is attempts
    that exhausted the budget. *)
val worker_restarts : 'a t -> int

(** Enqueue a job; [false] once {!shutdown} has begun (the job is
    dropped). *)
val submit : 'a t -> 'a -> bool

(** Jobs not yet finished: queued plus in-flight.  Poll this (instead of
    blocking in {!drain}) in loops that must stay responsive to a signal
    flag. *)
val pending : 'a t -> int

(** Drop every queued-but-unstarted job; returns how many were dropped.
    In-flight jobs are unaffected. *)
val cancel_pending : 'a t -> int

(** Block until the queue is empty and no job is in flight. *)
val drain : 'a t -> unit

(** Graceful: workers finish everything still queued, then exit and are
    joined.  Re-raises the first recorded job exception (lowest worker
    index) after the join.  Idempotent. *)
val shutdown : 'a t -> unit
