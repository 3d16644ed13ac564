(* The time the benchmark program started initialising its libraries.
   This library depends on nothing of the repo and comes first in
   bench.exe's library list, so it is initialised before them and the
   program's set-up time includes their initialisation. *)
let t0 = Unix.gettimeofday ()
