(* Unit tests for the convex substrate: function constructors, derivative
   consistency, 1-D search, and the capped-simplex dispatch solver. *)

let checkb = Alcotest.(check bool)
let checkf eps = Alcotest.(check (float eps))

(* --- Fn --- *)

let test_const () =
  let f = Convex.Fn.const 2.5 in
  checkf 0. "eval" 2.5 (Convex.Fn.eval f 0.);
  checkf 0. "eval at 3" 2.5 (Convex.Fn.eval f 3.);
  checkf 0. "deriv" 0. (Convex.Fn.deriv f 1.);
  checkb "constant flag" true (Convex.Fn.is_constant f)

let test_affine () =
  let f = Convex.Fn.affine ~intercept:1. ~slope:2. in
  checkf 1e-12 "eval" 5. (Convex.Fn.eval f 2.);
  checkf 1e-12 "deriv" 2. (Convex.Fn.deriv f 7.);
  checkb "not constant" false (Convex.Fn.is_constant f);
  checkb "zero slope is constant" true
    (Convex.Fn.is_constant (Convex.Fn.affine ~intercept:3. ~slope:0.))

let test_power () =
  let f = Convex.Fn.power ~idle:1. ~coef:2. ~expo:2. in
  checkf 1e-12 "eval" 9. (Convex.Fn.eval f 2.);
  checkf 1e-12 "deriv" 8. (Convex.Fn.deriv f 2.);
  checkb "rejects expo < 1" true
    (try ignore (Convex.Fn.power ~idle:0. ~coef:1. ~expo:0.5); false
     with Invalid_argument _ -> true)

let test_quadratic () =
  let f = Convex.Fn.quadratic ~c0:1. ~c1:2. ~c2:3. in
  checkf 1e-12 "eval" 6. (Convex.Fn.eval f 1.);
  checkf 1e-12 "deriv" 8. (Convex.Fn.deriv f 1.)

let test_piecewise_linear () =
  let f = Convex.Fn.piecewise_linear [ (0., 1.); (1., 2.); (2., 5.) ] in
  checkf 1e-12 "at 0" 1. (Convex.Fn.eval f 0.);
  checkf 1e-12 "at 0.5" 1.5 (Convex.Fn.eval f 0.5);
  checkf 1e-12 "at 1.5" 3.5 (Convex.Fn.eval f 1.5);
  checkf 1e-12 "beyond end extends last slope" 8. (Convex.Fn.eval f 3.);
  checkf 1e-12 "deriv first segment" 1. (Convex.Fn.deriv f 0.5);
  checkf 1e-12 "deriv second segment" 3. (Convex.Fn.deriv f 1.5)

let test_piecewise_rejects_concave () =
  checkb "concave rejected" true
    (try ignore (Convex.Fn.piecewise_linear [ (0., 0.); (1., 5.); (2., 6.) ]); false
     with Invalid_argument _ -> true);
  checkb "decreasing rejected" true
    (try ignore (Convex.Fn.piecewise_linear [ (0., 2.); (1., 1.) ]); false
     with Invalid_argument _ -> true)

let test_max_affine () =
  let f = Convex.Fn.max_affine [ (1., 0.); (0., 2.) ] in
  checkf 1e-12 "flat side" 1. (Convex.Fn.eval f 0.2);
  checkf 1e-12 "steep side" 4. (Convex.Fn.eval f 2.);
  checkb "convex" true (Convex.Fn.check_convex ~lo:0. ~hi:3. f)

let test_scale_add_shift () =
  let f = Convex.Fn.power ~idle:1. ~coef:1. ~expo:2. in
  let g = Convex.Fn.scale 0.5 f in
  checkf 1e-12 "scale" 1. (Convex.Fn.eval g 1.);
  checkf 1e-12 "scale deriv" 1. (Convex.Fn.deriv g 1.);
  let s = Convex.Fn.add f g in
  checkf 1e-12 "add" 3. (Convex.Fn.eval s 1.);
  let h = Convex.Fn.shift_idle 2. f in
  checkf 1e-12 "shift" 4. (Convex.Fn.eval h 1.)

let test_compose_scaled () =
  let f = Convex.Fn.power ~idle:1. ~coef:1. ~expo:2. in
  (* h(z) = 3 f(2 z) = 3 (1 + 4 z^2); h'(z) = 24 z. *)
  let h = Convex.Fn.compose_scaled ~outer:3. ~inner:2. f in
  checkf 1e-12 "eval" 15. (Convex.Fn.eval h 1.);
  checkf 1e-12 "deriv" 24. (Convex.Fn.deriv h 1.)

let test_numeric_deriv_fallback () =
  (* add of a closed-form and a closed-form keeps closed form; build one
     without by adding a piecewise to nothing... instead check the numeric
     path through a function wrapped via max_affine on a single piece with
     the closed deriv removed indirectly: use check on power where we
     compare numeric central difference to analytic. *)
  let f = Convex.Fn.power ~idle:0.5 ~coef:1.5 ~expo:3. in
  let z = 0.7 in
  let h = 1e-6 in
  let numeric = (Convex.Fn.eval f (z +. h) -. Convex.Fn.eval f (z -. h)) /. (2. *. h) in
  checkb "analytic matches numeric" true (Float.abs (numeric -. Convex.Fn.deriv f z) < 1e-5)

let test_convexity_checks () =
  checkb "power convex" true
    (Convex.Fn.check_convex ~lo:0. ~hi:4. (Convex.Fn.power ~idle:0. ~coef:1. ~expo:2.));
  checkb "power increasing" true
    (Convex.Fn.check_increasing ~lo:0. ~hi:4. (Convex.Fn.power ~idle:0. ~coef:1. ~expo:2.))

let test_rejects_negative () =
  checkb "negative const" true
    (try ignore (Convex.Fn.const (-1.)); false with Invalid_argument _ -> true);
  checkb "negative slope" true
    (try ignore (Convex.Fn.affine ~intercept:0. ~slope:(-1.)); false
     with Invalid_argument _ -> true)

(* --- Scalar_min --- *)

let test_golden_section_quadratic () =
  let f x = ((x -. 1.3) ** 2.) +. 2. in
  let x, v = Convex.Scalar_min.golden_section f ~lo:0. ~hi:5. in
  checkb "argmin" true (Float.abs (x -. 1.3) < 1e-6);
  checkb "min value" true (Float.abs (v -. 2.) < 1e-9)

let test_golden_section_boundary () =
  (* Monotone increasing: minimum at the left boundary. *)
  let x, _ = Convex.Scalar_min.golden_section (fun x -> x) ~lo:2. ~hi:7. in
  checkb "left boundary" true (Float.abs (x -. 2.) < 1e-6)

let test_golden_section_degenerate () =
  let x, v = Convex.Scalar_min.golden_section (fun x -> x *. x) ~lo:3. ~hi:3. in
  checkf 1e-12 "point interval" 3. x;
  checkf 1e-9 "value" 9. v

let test_bisect_monotone () =
  let f x = x *. x in
  let x = Convex.Scalar_min.bisect_monotone f ~lo:0. ~hi:10. ~target:9. in
  checkb "crossing at 3" true (Float.abs (x -. 3.) < 1e-9)

let test_bisect_monotone_ends () =
  let f x = x in
  checkf 0. "target below range" 2. (Convex.Scalar_min.bisect_monotone f ~lo:2. ~hi:5. ~target:1.);
  checkf 0. "target above range" 5. (Convex.Scalar_min.bisect_monotone f ~lo:2. ~hi:5. ~target:9.)

(* --- Dispatch --- *)

let piece fn upper = { Convex.Dispatch.fn; upper }

let total_of sol = Array.fold_left ( +. ) 0. sol.Convex.Dispatch.assignment

let test_dispatch_single_piece () =
  match Convex.Dispatch.solve [| piece (Convex.Fn.power ~idle:0. ~coef:1. ~expo:2.) 1. |] ~total:1. with
  | None -> Alcotest.fail "feasible"
  | Some sol ->
      checkf 1e-9 "all mass on the only piece" 1. sol.Convex.Dispatch.assignment.(0);
      checkf 1e-9 "objective" 1. sol.Convex.Dispatch.objective

let test_dispatch_symmetric_split () =
  (* Two identical strictly convex pieces: the optimum splits evenly. *)
  let f () = Convex.Fn.power ~idle:0. ~coef:1. ~expo:2. in
  match Convex.Dispatch.solve [| piece (f ()) 1.; piece (f ()) 1. |] ~total:1. with
  | None -> Alcotest.fail "feasible"
  | Some sol ->
      checkb "even split" true (Float.abs (sol.Convex.Dispatch.assignment.(0) -. 0.5) < 1e-6);
      checkb "objective 0.5" true (Float.abs (sol.Convex.Dispatch.objective -. 0.5) < 1e-6)

let test_dispatch_affine_plateau () =
  (* Equal slopes: any split is optimal; solver must still return a valid
     simplex point with the right objective. *)
  let f () = Convex.Fn.affine ~intercept:0. ~slope:2. in
  match Convex.Dispatch.solve [| piece (f ()) 0.7; piece (f ()) 0.7 |] ~total:1. with
  | None -> Alcotest.fail "feasible"
  | Some sol ->
      checkb "sums to 1" true (Float.abs (total_of sol -. 1.) < 1e-6);
      checkb "caps respected" true
        (Array.for_all (fun z -> z <= 0.7 +. 1e-9 && z >= -1e-9) sol.Convex.Dispatch.assignment);
      checkb "objective 2" true (Float.abs (sol.Convex.Dispatch.objective -. 2.) < 1e-6)

let test_dispatch_slope_ordering () =
  (* Cheap slope gets the volume until its cap binds. *)
  let cheap = Convex.Fn.affine ~intercept:0. ~slope:1. in
  let dear = Convex.Fn.affine ~intercept:0. ~slope:5. in
  match Convex.Dispatch.solve [| piece cheap 0.6; piece dear 1. |] ~total:1. with
  | None -> Alcotest.fail "feasible"
  | Some sol ->
      checkb "cheap saturated" true (Float.abs (sol.Convex.Dispatch.assignment.(0) -. 0.6) < 1e-6);
      checkb "rest on dear" true (Float.abs (sol.Convex.Dispatch.assignment.(1) -. 0.4) < 1e-6)

let test_dispatch_infeasible () =
  let f = Convex.Fn.const 1. in
  checkb "caps below total" true
    (Convex.Dispatch.solve [| piece f 0.3; piece f 0.3 |] ~total:1. = None);
  checkb "feasible reports true" true
    (Convex.Dispatch.feasible [| piece f 0.5; piece f 0.5 |] ~total:1.)

let test_dispatch_zero_total () =
  match Convex.Dispatch.solve [| piece (Convex.Fn.const 3.) 1. |] ~total:0. with
  | None -> Alcotest.fail "feasible"
  | Some sol ->
      checkf 0. "zero assignment" 0. sol.Convex.Dispatch.assignment.(0);
      checkf 0. "objective counts h(0)" 3. sol.Convex.Dispatch.objective

let test_dispatch_zero_cap_piece () =
  let f = Convex.Fn.power ~idle:0. ~coef:1. ~expo:2. in
  match Convex.Dispatch.solve [| piece f 0.; piece f 1. |] ~total:1. with
  | None -> Alcotest.fail "feasible"
  | Some sol ->
      checkf 1e-9 "capped-out piece gets nothing" 0. sol.Convex.Dispatch.assignment.(0);
      checkb "all on the open piece" true (Float.abs (sol.Convex.Dispatch.assignment.(1) -. 1.) < 1e-9)

let test_dispatch_matches_greedy () =
  (* Water-filling vs the independent greedy oracle on mixed pieces. *)
  let pieces =
    [| piece (Convex.Fn.power ~idle:0.2 ~coef:1.5 ~expo:2.) 0.8;
       piece (Convex.Fn.affine ~intercept:0.1 ~slope:0.7) 0.5;
       piece (Convex.Fn.power ~idle:0. ~coef:0.9 ~expo:3.) 1. |]
  in
  match (Convex.Dispatch.solve pieces ~total:1., Convex.Dispatch.greedy ~steps:20000 pieces ~total:1.) with
  | Some kkt, Some grd ->
      checkb "objectives agree" true
        (Float.abs (kkt.Convex.Dispatch.objective -. grd.Convex.Dispatch.objective) < 1e-3)
  | _ -> Alcotest.fail "both feasible"

let test_dispatch_total_equals_capacity () =
  (* Exactly saturating every cap must be feasible and saturate. *)
  let f = Convex.Fn.power ~idle:0.1 ~coef:1. ~expo:2. in
  match Convex.Dispatch.solve [| piece f 0.4; piece f 0.6 |] ~total:1. with
  | None -> Alcotest.fail "feasible at exact capacity"
  | Some sol ->
      checkb "piece 0 saturated" true (Float.abs (sol.Convex.Dispatch.assignment.(0) -. 0.4) < 1e-6);
      checkb "piece 1 saturated" true (Float.abs (sol.Convex.Dispatch.assignment.(1) -. 0.6) < 1e-6)

let test_dispatch_many_identical_pieces () =
  (* d = 5 identical strictly convex pieces: the symmetric split. *)
  let pieces = Array.init 5 (fun _ -> piece (Convex.Fn.power ~idle:0. ~coef:1. ~expo:2.) 1.) in
  match Convex.Dispatch.solve pieces ~total:1. with
  | None -> Alcotest.fail "feasible"
  | Some sol ->
      Array.iter
        (fun z -> checkb "even fifths" true (Float.abs (z -. 0.2) < 1e-5))
        sol.Convex.Dispatch.assignment

let test_dispatch_negative_total_rejected () =
  checkb "raises" true
    (try ignore (Convex.Dispatch.solve [| piece (Convex.Fn.const 0.) 1. |] ~total:(-1.)); false
     with Invalid_argument _ -> true)

(* One line of cells through a sweep the caller owns, as a layer fill
   drives it: the per-cell objectives, [infinity] where infeasible. *)
let sweep_line cells =
  let sw = Convex.Dispatch.sweep () in
  let out = Array.make (Array.length cells) nan in
  Convex.Dispatch.sweep_start sw;
  Array.iteri (fun i pieces -> Convex.Dispatch.sweep_solve sw pieces ~total:1. out i) cells;
  Convex.Dispatch.sweep_finish sw;
  out

let test_dispatch_warm_line_matches_cold () =
  (* A concrete monotone line: a fixed prefix of two pieces plus a
     swept slot whose capacity grows cell by cell, exactly the shape
     the DP layer fill hands to [sweep_solve].  The warm-started sweep
     must agree with a cold per-cell [solve] at every cell, including
     the leading infeasible ones. *)
  let cube = Convex.Fn.power ~idle:0.3 ~coef:1. ~expo:3. in
  let quad = Convex.Fn.quadratic ~c0:0.1 ~c1:0.4 ~c2:0.8 in
  let prefix = [| piece cube 0.25; piece quad 0.2 |] in
  let cells =
    Array.init 6 (fun v ->
        let cap = 0.3 *. float_of_int v in
        Array.append prefix [| piece cube (min 1.2 cap) |])
  in
  let warm = sweep_line cells in
  Array.iteri
    (fun v cell ->
      let cold =
        match Convex.Dispatch.solve cell ~total:1. with
        | None -> infinity
        | Some sol -> sol.Convex.Dispatch.objective
      in
      if Float.is_finite cold then
        checkb (Printf.sprintf "cell %d" v) true
          (Float.abs (warm.(v) -. cold) <= 1e-9 *. (1. +. Float.abs cold))
      else checkb (Printf.sprintf "cell %d infeasible" v) true (warm.(v) = infinity))
    cells

(* A cell whose pieces have no closed-form inverse takes [solve]'s
   route from the line sweep and counts once in [dispatch.calls].  A
   max-of-affine piece beside a power piece, five cells of which the
   first is infeasible: five calls. *)
let test_dispatch_fallback_counts_once () =
  let calls () =
    match Obs.Counter.find "dispatch.calls" with Some c -> Obs.Counter.value c | None -> 0
  in
  let hinge = Convex.Fn.max_affine [ (0.1, 0.5); (0., 1.5) ] in
  let cube = Convex.Fn.power ~idle:0.1 ~coef:1. ~expo:3. in
  let cells =
    Array.init 5 (fun v -> [| piece hinge 0.5; piece cube (0.4 +. (0.2 *. float_of_int v)) |])
  in
  let before = calls () in
  let out = sweep_line cells in
  checkb "first cell infeasible" true (out.(0) = infinity);
  checkb "the rest feasible" true (Array.for_all Float.is_finite (Array.sub out 1 4));
  Alcotest.(check int) "one call per cell" 5 (calls () - before)

let () =
  Alcotest.run "convex"
    [ ( "fn",
        [ Alcotest.test_case "const" `Quick test_const;
          Alcotest.test_case "affine" `Quick test_affine;
          Alcotest.test_case "power" `Quick test_power;
          Alcotest.test_case "quadratic" `Quick test_quadratic;
          Alcotest.test_case "piecewise linear" `Quick test_piecewise_linear;
          Alcotest.test_case "piecewise rejects non-convex" `Quick test_piecewise_rejects_concave;
          Alcotest.test_case "max affine" `Quick test_max_affine;
          Alcotest.test_case "scale/add/shift" `Quick test_scale_add_shift;
          Alcotest.test_case "compose_scaled" `Quick test_compose_scaled;
          Alcotest.test_case "derivative consistency" `Quick test_numeric_deriv_fallback;
          Alcotest.test_case "convexity checks" `Quick test_convexity_checks;
          Alcotest.test_case "rejects negatives" `Quick test_rejects_negative
        ] );
      ( "scalar_min",
        [ Alcotest.test_case "golden section quadratic" `Quick test_golden_section_quadratic;
          Alcotest.test_case "boundary minimum" `Quick test_golden_section_boundary;
          Alcotest.test_case "degenerate interval" `Quick test_golden_section_degenerate;
          Alcotest.test_case "bisect crossing" `Quick test_bisect_monotone;
          Alcotest.test_case "bisect range ends" `Quick test_bisect_monotone_ends
        ] );
      ( "dispatch",
        [ Alcotest.test_case "single piece" `Quick test_dispatch_single_piece;
          Alcotest.test_case "symmetric split" `Quick test_dispatch_symmetric_split;
          Alcotest.test_case "affine plateau" `Quick test_dispatch_affine_plateau;
          Alcotest.test_case "slope ordering with caps" `Quick test_dispatch_slope_ordering;
          Alcotest.test_case "infeasible" `Quick test_dispatch_infeasible;
          Alcotest.test_case "zero total" `Quick test_dispatch_zero_total;
          Alcotest.test_case "zero-cap piece" `Quick test_dispatch_zero_cap_piece;
          Alcotest.test_case "matches greedy oracle" `Quick test_dispatch_matches_greedy;
          Alcotest.test_case "total equals capacity" `Quick test_dispatch_total_equals_capacity;
          Alcotest.test_case "many identical pieces" `Quick test_dispatch_many_identical_pieces;
          Alcotest.test_case "rejects negative total" `Quick test_dispatch_negative_total_rejected;
          Alcotest.test_case "warm line sweep matches cold" `Quick
            test_dispatch_warm_line_matches_cold;
          Alcotest.test_case "fallback cell counts once" `Quick
            test_dispatch_fallback_counts_once
        ] )
    ]
