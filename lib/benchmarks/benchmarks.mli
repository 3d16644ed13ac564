(** The five paper benchmarks (§6), each expressed through its frontend:
    Jacobian via mini-Flang (from Fortran source), Diffusion and Acoustic
    via mini-Devito, the 25-point Seismic directly as a stencil program,
    and UVKBE via mini-PSyclone. *)

module P = Wsc_frontends.Stencil_program

type size =
  | Tiny  (** 4×4, small z, few iterations — simulator correctness tests *)
  | Small  (** 100×100 (paper) *)
  | Medium  (** 500×500 (paper) *)
  | Large  (** 750×994, the full WSE2 rectangle (paper) *)
  | Proxy of int * int
      (** custom PE extents with the benchmark's real z — used by the
          harness to measure steady-state per-PE behaviour *)

val size_to_string : size -> string
val xy_extents : size -> int * int

val jacobian : ?iterations:int -> size -> P.t
val diffusion : ?iterations:int -> size -> P.t
val uvkbe : ?iterations:int -> size -> P.t

type descr = {
  id : string;
  frontend : string;
  default_iterations : int;
  flops_per_point : int;
  make : size -> P.t;
  make_n : size -> int -> P.t;  (** explicit iteration count *)
}

val all : descr list

(** @raise Invalid_argument for unknown ids. *)
val find : string -> descr

(** Benchmark [id] at [size], over [iterations] timesteps when given.
    @raise Invalid_argument for unknown ids. *)
val program : ?iterations:int -> string -> size -> P.t
