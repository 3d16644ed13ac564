(** The five paper benchmarks (§6), each expressed through its frontend:

    - Jacobian — Fortran source through mini-Flang
    - Diffusion, Acoustic — symbolic equations through mini-Devito
    - 25-point Seismic — direct stencil construction (the paper's version
      is hand-translated from CSL, i.e. enters the pipeline as stencil IR)
    - UVKBE — kernel metadata through mini-PSyclone *)

module P = Wsc_frontends.Stencil_program
module Flang = Wsc_frontends.Flang_fe
module Devito = Wsc_frontends.Devito_fe
module Psyclone = Wsc_frontends.Psyclone_fe

type size =
  | Tiny
  | Small
  | Medium
  | Large
  | Proxy of int * int
      (** custom PE-grid extents with the real z extent — used by the
          benchmark harness to measure steady-state per-PE behaviour on a
          small grid and extrapolate to the full wafer *)

let size_to_string = function
  | Tiny -> "tiny"
  | Small -> "small"
  | Medium -> "medium"
  | Large -> "large"
  | Proxy (x, y) -> Printf.sprintf "proxy%dx%d" x y

(** X/Y extents per problem size (paper §6); Tiny is ours, for simulator
    correctness tests. *)
let xy_extents = function
  | Tiny -> (4, 4)
  | Small -> (100, 100)
  | Medium -> (500, 500)
  | Large -> (750, 994)
  | Proxy (x, y) -> (x, y)

(** {1 Jacobian (Flang)} — 3D 6-point Laplace solver, z = 900. *)

let jacobian_source =
  {|
real :: u(0:nx+1, 0:ny+1, 0:nz+1)
real :: un(0:nx+1, 0:ny+1, 0:nz+1)
do step = 1, 100000
  do k = 1, nz
    do j = 1, ny
      do i = 1, nx
        un(i,j,k) = 0.16666666 * (u(i-1,j,k) + u(i+1,j,k) + u(i,j-1,k) &
                  + u(i,j+1,k) + u(i,j,k-1) + u(i,j,k+1))
      end do
    end do
  end do
  u = un
end do
|}

(* The free-form continuation '&' is not in the mini-Flang grammar; join
   continued lines before parsing. *)
let join_continuations src =
  String.concat ""
    (List.map
       (fun line ->
         let t = String.trim line in
         if String.length t > 0 && t.[String.length t - 1] = '&' then
           String.sub t 0 (String.length t - 1)
         else line ^ "\n")
       (String.split_on_char '\n' src))

let jacobian ?iterations (size : size) : P.t =
  let nx, ny = xy_extents size in
  let nz = match size with Tiny -> 6 | _ -> 900 in
  let iterations =
    match (size, iterations) with
    | Tiny, None -> Some 3
    | _, it -> it
  in
  Flang.compile ~name:"jacobian" ~extents:(nx, ny, nz) ?iterations
    (join_continuations jacobian_source)

(** {1 Diffusion (Devito)} — 3D 13-point heat equation, z = 704. *)

let diffusion_python_loc = 40
(* the paper's Table 1 reports 40 lines of Devito python for Diffusion *)

let diffusion ?iterations (size : size) : P.t =
  let nx, ny = xy_extents size in
  let nz = match size with Tiny -> 6 | _ -> 704 in
  let iterations =
    match (iterations, size) with
    | Some n, _ -> n
    | None, Tiny -> 2
    | None, _ -> 512
  in
  let g = Devito.grid ~shape:(nx, ny, nz) "grid" in
  let u = Devito.time_function ~space_order:4 ~grid:g "u" in
  let alpha_dt = 0.05 in
  let open Devito in
  operator ~name:"diffusion" ~iterations ~dsl_loc:diffusion_python_loc
    [ eq (forward u) (fn u + (num alpha_dt * laplace (fn u))) ]

(** {1 Acoustic (Devito)} — isotropic acoustic wave equation, 2nd order in
    time, 3D 13-point, z = 604. *)

let acoustic_python_loc = 81

let acoustic ?iterations (size : size) : P.t =
  let nx, ny = xy_extents size in
  let nz = match size with Tiny -> 6 | _ -> 604 in
  let iterations =
    match (iterations, size) with
    | Some n, _ -> n
    | None, Tiny -> 2
    | None, _ -> 512
  in
  let g = Devito.grid ~shape:(nx, ny, nz) "grid" in
  let u = Devito.time_function ~time_order:2 ~space_order:4 ~grid:g "u" in
  let c2_dt2 = 0.1 in
  let open Devito in
  operator ~name:"acoustic" ~iterations ~dsl_loc:acoustic_python_loc
    [ eq (forward u) ((num 2.0 * fn u) - backward u + (num c2_dt2 * laplace (fn u))) ]

(** {1 25-point Seismic (Cerebras)} — 8th-order star stencil for seismic
    modelling, translated from the hand-written CSL kernel of Jacquelin et
    al.; z = 450.  Entered directly as a stencil program (the "frontend"
    is stencil IR itself). *)

let seismic_dsl_loc = 81

let seismic ?iterations (size : size) : P.t =
  let nx, ny = xy_extents size in
  let nz = match size with Tiny -> 10 | _ -> 450 in
  let iterations =
    match (iterations, size) with
    | Some n, _ -> n
    | None, Tiny -> 2
    | None, _ -> 100_000
  in
  let coeffs = Devito.deriv2_coeffs 8 in
  let c2_dt2 = 0.08 in
  (* u_next = 2u - u_prev + c2_dt2 * (8th-order laplacian u) *)
  let axis dim =
    List.map
      (fun (off, c) ->
        let o = List.init 3 (fun d -> if d = dim then off else 0) in
        P.Mul (P.Const (c *. c2_dt2), P.Access ("u", o)))
      coeffs
  in
  let terms = axis 0 @ axis 1 @ axis 2 in
  let lap = List.fold_left (fun acc t -> P.Add (acc, t)) (List.hd terms) (List.tl terms) in
  let expr =
    P.Add
      ( P.Sub (P.Mul (P.Const 2.0, P.Access ("u", [ 0; 0; 0 ])), P.Access ("u_prev", [ 0; 0; 0 ])),
        lap )
  in
  let prog =
    {
      P.pname = "seismic";
      frontend = "csl";
      extents = (nx, ny, nz);
      halo = 4;
      state = [ "u_prev"; "u" ];
      kernels = [ { P.kname = "seismic_update"; output = "u_next"; expr } ];
      next_state = [ "u"; "u_next" ];
      iterations;
      use_loop = true;
      dsl_loc = seismic_dsl_loc;
    }
  in
  prog

(** {1 UVKBE (PSyclone)} — four fields, two communicated, two consecutive
    applies; a single iteration; z = 600. *)

let uvkbe_dsl_loc = 44

let uvkbe ?(iterations = 1) (size : size) : P.t =
  let nx, ny = xy_extents size in
  let nz = match size with Tiny -> 6 | _ -> 600 in
  let open Psyclone in
  let sq g off = P.Mul (P.Access (g, off), P.Access (g, off)) in
  (* kinetic-energy kernel: reads u, v with a depth-1 cross stencil *)
  let ke_kernel =
    kernel ~name:"ke_kern"
      ~meta:
        [
          { field = "u"; access = Gh_read; shape = Cross 1 };
          { field = "v"; access = Gh_read; shape = Cross 1 };
          { field = "ke"; access = Gh_write; shape = Pointwise };
        ]
      ~body:
        (P.Mul
           ( P.Const 0.25,
             P.Add
               ( P.Add (sq "u" [ 0; 0; 0 ], sq "u" [ -1; 0; 0 ]),
                 P.Add (sq "v" [ 0; 0; 0 ], sq "v" [ 0; -1; 0 ]) ) ))
  in
  (* velocity update consuming the kinetic energy locally, plus
     local-only fields — u and v are the two communicated fields *)
  let dt = 0.01 in
  let u_update =
    kernel ~name:"u_update_kern"
      ~meta:
        [
          { field = "u"; access = Gh_read; shape = Pointwise };
          { field = "ke"; access = Gh_read; shape = Pointwise };
          { field = "ssh"; access = Gh_read; shape = Pointwise };
          { field = "h"; access = Gh_read; shape = Pointwise };
          { field = "u_next"; access = Gh_write; shape = Pointwise };
        ]
      ~body:
        (P.Add
           ( P.Sub
               ( P.Access ("u", [ 0; 0; 0 ]),
                 P.Mul (P.Const dt, P.Access ("ke", [ 0; 0; 0 ])) ),
             P.Mul (P.Access ("ssh", [ 0; 0; 0 ]), P.Access ("h", [ 0; 0; 0 ])) ))
  in
  (* single-shot UVKBE exercises the loop-free path (paper §5.4); any
     other count uses a timestep loop, as unrolled straight-line
     repetitions would be fused across timesteps by stencil inlining and
     zero of them would leave no apply to lower *)
  invoke ~name:"uvkbe" ~extents:(nx, ny, nz) ~iterations ~use_loop:(iterations <> 1)
    ~state:[ "u"; "v"; "ssh"; "h" ]
    ~next_state:[ "u_next"; "v"; "ssh"; "h" ]
    ~dsl_loc:uvkbe_dsl_loc
    [ ke_kernel; u_update ]

(** {1 Registry} *)

type descr = {
  id : string;
  frontend : string;
  default_iterations : int;
  flops_per_point : int;  (** per grid point per timestep, as compiled *)
  make : size -> P.t;
  make_n : size -> int -> P.t;  (** explicit iteration count *)
}

let all : descr list =
  [
    {
      id = "jacobian";
      frontend = "flang";
      default_iterations = 100_000;
      flops_per_point = 6;
      make = (fun s -> jacobian s);
      make_n = (fun s n -> jacobian ~iterations:n s);
    };
    {
      id = "diffusion";
      frontend = "devito";
      default_iterations = 512;
      flops_per_point = 16;
      make = (fun s -> diffusion s);
      make_n = (fun s n -> diffusion ~iterations:n s);
    };
    {
      id = "acoustic";
      frontend = "devito";
      default_iterations = 512;
      flops_per_point = 18;
      make = (fun s -> acoustic s);
      make_n = (fun s n -> acoustic ~iterations:n s);
    };
    {
      id = "seismic";
      frontend = "csl";
      default_iterations = 100_000;
      flops_per_point = 28;
      make = (fun s -> seismic s);
      make_n = (fun s n -> seismic ~iterations:n s);
    };
    {
      id = "uvkbe";
      frontend = "psyclone";
      default_iterations = 1;
      flops_per_point = 12;
      make = (fun s -> uvkbe s);
      make_n = (fun s n -> uvkbe ~iterations:n s);
    };
  ]

let find id =
  match List.find_opt (fun d -> d.id = id) all with
  | Some d -> d
  | None -> invalid_arg ("unknown benchmark: " ^ id)

let program ?iterations id size =
  let d = find id in
  match iterations with Some n -> d.make_n size n | None -> d.make size
