(* The benchmark's own arithmetic on fixed inputs. *)

let feq = Alcotest.float 1e-9

let percentile_rule () =
  Alcotest.(check int) "1000 samples: 10 beyond p99" 10 (Arith.beyond ~n:1000 0.99);
  Alcotest.(check bool) "p99 needs 1000" true (Arith.reportable ~n:1000 0.99);
  Alcotest.(check bool) "999 is too few for p99" false (Arith.reportable ~n:999 0.99);
  let hp n = Arith.highest_percentile ~n in
  Alcotest.(check (option feq)) "10000 -> p99.9" (Some 0.999) (hp 10000);
  Alcotest.(check (option feq)) "9999 -> p99" (Some 0.99) (hp 9999);
  Alcotest.(check (option feq)) "40 -> p75" (Some 0.75) (hp 40);
  Alcotest.(check (option feq)) "20 -> p50" (Some 0.5) (hp 20);
  Alcotest.(check (option feq)) "19 -> none" None (hp 19)

let quantiles () =
  let a = [| 5.; 1.; 4.; 2.; 3. |] in
  Alcotest.check feq "median" 3. (Arith.median a);
  Alcotest.check feq "p25" 2. (Arith.quantile a 0.25);
  Alcotest.check feq "interpolated" 3. (Arith.quantile [| 10.; 0. |] 0.3);
  Alcotest.check feq "even count" 2.5 (Arith.median [| 1.; 2.; 3.; 4. |])

let windows () =
  (* two windows of 1000: the second holds a stall of 20 samples at 100 *)
  let s = Array.init 2000 (fun i -> if i >= 1980 then 100. else 1. +. float_of_int (i mod 10)) in
  let p50, p99 = Arith.windowed_quantiles s ~min_window:1000 ~max_windows:10 in
  (* window 1's p50 is 5.5; window 2 holds 98 of each of 1..10 below
     the stall, so its p50 is 6 *)
  Alcotest.check feq "p50 of the windows" 5.75 p50;
  (* window 1's p99 is 10; window 2's lands in the stall; the median
     of two is their mean *)
  Alcotest.check feq "p99 of the windows" 55. p99;
  let _, p99 = Arith.windowed_quantiles [| 1.; 2.; 3. |] ~min_window:1000 ~max_windows:10 in
  Alcotest.check feq "too few for two windows: one" 2.98 p99

let chunks () =
  (* 4 units done at 1, 2, 4, 8 s after t0 = 0: chunks of 1 unit have
     rates 1, 1, 1/2, 1/4 *)
  Alcotest.check feq "median chunk rate" 0.75
    (Arith.chunk_rate ~t0:0. [| 1.; 2.; 4.; 8. |] ~chunks:4);
  (* chunks of 2 units: 2 in 2 s, then 2 in 6 s *)
  Alcotest.check feq "two chunks" (2. /. 3.)
    (Arith.chunk_rate ~t0:0. [| 1.; 2.; 4.; 8. |] ~chunks:2)

let span rung name frame slot t0 t1 = { Arith.rung; name; frame; slot; t0; t1 }

let self_time () =
  let parents = [ span 3 "feed" 7 (-1) 0. 10.; span 3 "feed" 8 (-1) 0. 5. ] in
  let children =
    [ span 4 "step" 7 14 100. 103.; span 4 "step" 7 15 200. 204.; span 4 "step" 9 0 0. 50. ]
  in
  Alcotest.(check (list feq)) "frame-level: minus every child of the frame" [ 3.; 5. ]
    (Arith.self_times ~parents ~children);
  let parents = [ span 4 "step" 7 14 0. 10.; span 4 "step" 7 15 0. 10. ] in
  let children = [ span 5 "fill" 7 14 0. 6.; span 5 "ramp" 7 14 6. 7.; span 5 "fill" 7 15 0. 2. ] in
  Alcotest.(check (list feq)) "slot-level: minus the same slot's children" [ 3.; 8. ]
    (Arith.self_times ~parents ~children)

let buckets () =
  let before = [ (10., 2.); (100., 4.); (infinity, 4.) ] in
  let after = [ (10., 12.); (100., 24.); (infinity, 26.) ] in
  let d = Arith.bucket_delta ~before ~after in
  Alcotest.(check (list (pair feq feq))) "delta" [ (10., 10.); (100., 20.); (infinity, 22.) ] d;
  Alcotest.check feq "median inside the second bucket" 19. (Arith.bucket_quantile d 0.5);
  Alcotest.check feq "inside the first bucket" 5.5 (Arith.bucket_quantile d 0.25);
  Alcotest.check feq "overflow answers its lower edge" 100. (Arith.bucket_quantile d 0.99)

let proc_status () =
  let status =
    "Name:\trightsizer.exe\nVmPeak:\t  123456 kB\nVmHWM:\t   47792 kB\nVmRSS:\t   40000 kB\n"
  in
  Alcotest.(check (option int)) "VmHWM" (Some 47792) (Arith.vmhwm_kb status);
  Alcotest.(check (option int)) "absent" None (Arith.vmhwm_kb "Name:\tx\nVmRSS:\t 1 kB\n")

let proc_stat () =
  let stat =
    "4242 (rightsizer serve) S 1 4242 4242 0 -1 4194304 1200 0 3 0 731 52 0 0 20 0 1 0 \
     5000 123456789 9000 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
  in
  Alcotest.(check (option int)) "utime + stime after a spaced name" (Some 783)
    (Arith.cpu_ticks stat);
  Alcotest.(check (option int)) "truncated" None (Arith.cpu_ticks "1 (x) S 1 2")

let () =
  Alcotest.run "perfbench"
    [ ( "arith",
        [ Alcotest.test_case "percentile rule" `Quick percentile_rule;
          Alcotest.test_case "quantiles" `Quick quantiles;
          Alcotest.test_case "windowed quantiles" `Quick windows;
          Alcotest.test_case "chunk rate" `Quick chunks;
          Alcotest.test_case "self time across rungs" `Quick self_time;
          Alcotest.test_case "bucket deltas and quantiles" `Quick buckets;
          Alcotest.test_case "VmHWM from /proc/PID/status" `Quick proc_status;
          Alcotest.test_case "utime+stime from /proc/PID/stat" `Quick proc_stat ] ) ]
