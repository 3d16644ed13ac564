(** Persistent worker pool — see the interface.

    One mutex guards the queue and all bookkeeping; [work] wakes parked
    workers when a job or the stop flag arrives, [idle] wakes waiters in
    {!drain} when the last outstanding job completes. *)

let spawned = Atomic.make 0
let domains_spawned () = Atomic.get spawned

type 'a t = {
  lock : Mutex.t;
  work : Condition.t;
  idle : Condition.t;
  queue : ('a * int) Queue.t;  (** (job, attempts so far) *)
  max_retries : int;
  on_exhausted : (int -> 'a -> exn -> unit) option;
  mutable stop : bool;
  mutable in_flight : int;
  mutable failures : (int * exn) list;  (** (worker index, exn), unordered *)
  mutable n_retries : int;
  mutable n_restarts : int;
  mutable joined : bool;
  mutable workers : unit Domain.t array;  (** set once, right after create *)
}

(* bounded exponential backoff before a retry: 1 ms, 2 ms, 4 ms … capped
   at 20 ms — enough to let a transient (a full cache, a busy peer)
   clear, small enough for tests *)
let backoff_s (attempts : int) : float =
  Float.min 0.02 (0.001 *. Float.pow 2.0 (float_of_int attempts))

let record_failure (t : 'a t) (i : int) (e : exn) : unit =
  Mutex.lock t.lock;
  t.failures <- (i, e) :: t.failures;
  Mutex.unlock t.lock

let worker_loop (t : 'a t) (f : int -> 'a -> unit) (i : int) () : unit =
  let rec loop () =
    Mutex.lock t.lock;
    while Queue.is_empty t.queue && not t.stop do
      Condition.wait t.work t.lock
    done;
    if Queue.is_empty t.queue then (* stop, and nothing left: exit *)
      Mutex.unlock t.lock
    else begin
      let job, attempts = Queue.pop t.queue in
      t.in_flight <- t.in_flight + 1;
      Mutex.unlock t.lock;
      (try f i job
       with e ->
         if t.max_retries = 0 then record_failure t i e
         else begin
           (* the worker survives the escaped exception (a restart in
              all but the Domain.spawn): requeue the job with backoff
              until its retry budget runs out.  in_flight still counts
              this job, so drain cannot release during the backoff. *)
           Mutex.lock t.lock;
           t.n_restarts <- t.n_restarts + 1;
           let retry = attempts < t.max_retries in
           if retry then t.n_retries <- t.n_retries + 1;
           Mutex.unlock t.lock;
           if retry then begin
             Unix.sleepf (backoff_s attempts);
             Mutex.lock t.lock;
             Queue.push (job, attempts + 1) t.queue;
             Condition.signal t.work;
             Mutex.unlock t.lock
           end
           else
             match t.on_exhausted with
             | Some g -> ( try g i job e with e2 -> record_failure t i e2)
             | None -> record_failure t i e
         end);
      Mutex.lock t.lock;
      t.in_flight <- t.in_flight - 1;
      if Queue.is_empty t.queue && t.in_flight = 0 then Condition.broadcast t.idle;
      Mutex.unlock t.lock;
      loop ()
    end
  in
  loop ()

let create ?(max_retries = 0) ?on_exhausted ~domains (f : int -> 'a -> unit) :
    'a t =
  let n = max 1 domains in
  let t =
    {
      lock = Mutex.create ();
      work = Condition.create ();
      idle = Condition.create ();
      queue = Queue.create ();
      max_retries = max 0 max_retries;
      on_exhausted;
      stop = false;
      in_flight = 0;
      failures = [];
      n_retries = 0;
      n_restarts = 0;
      joined = false;
      workers = [||];
    }
  in
  t.workers <-
    Array.init n (fun i ->
        Atomic.incr spawned;
        Domain.spawn (worker_loop t f i));
  t

let submit (t : 'a t) (job : 'a) : bool =
  Mutex.lock t.lock;
  let accepted = not t.stop in
  if accepted then begin
    Queue.push (job, 0) t.queue;
    Condition.signal t.work
  end;
  Mutex.unlock t.lock;
  accepted

let retries (t : 'a t) : int =
  Mutex.lock t.lock;
  let n = t.n_retries in
  Mutex.unlock t.lock;
  n

let worker_restarts (t : 'a t) : int =
  Mutex.lock t.lock;
  let n = t.n_restarts in
  Mutex.unlock t.lock;
  n

let pending (t : 'a t) : int =
  Mutex.lock t.lock;
  let n = Queue.length t.queue + t.in_flight in
  Mutex.unlock t.lock;
  n

let cancel_pending (t : 'a t) : int =
  Mutex.lock t.lock;
  let n = Queue.length t.queue in
  Queue.clear t.queue;
  if t.in_flight = 0 then Condition.broadcast t.idle;
  Mutex.unlock t.lock;
  n

let drain (t : 'a t) : unit =
  Mutex.lock t.lock;
  while not (Queue.is_empty t.queue && t.in_flight = 0) do
    Condition.wait t.idle t.lock
  done;
  Mutex.unlock t.lock

let shutdown (t : 'a t) : unit =
  Mutex.lock t.lock;
  t.stop <- true;
  Condition.broadcast t.work;
  let already = t.joined in
  t.joined <- true;
  Mutex.unlock t.lock;
  if not already then begin
    Array.iter Domain.join t.workers;
    (* deterministic re-raise: lowest worker index first *)
    match List.sort (fun (a, _) (b, _) -> compare a b) t.failures with
    | (_, e) :: _ -> raise e
    | [] -> ()
  end
