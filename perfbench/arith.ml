(* The benchmark's own arithmetic: order statistics under the
   ten-samples-beyond rule, self time across ladder rungs, histogram
   deltas between two scrapes, and the /proc readings. *)

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

(* Linear interpolation between closest ranks over sorted samples. *)
let quantile_sorted s q =
  let n = Array.length s in
  if n = 0 then nan
  else
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor h) in
    let hi = min (n - 1) (lo + 1) in
    s.(lo) +. ((h -. float_of_int lo) *. (s.(hi) -. s.(lo)))

let quantile a q = quantile_sorted (sorted a) q
let median a = quantile a 0.5

(* [a <= b] up to the rounding of a re-summed cost. *)
let rel_le a b = a <= b +. (1e-9 *. Float.abs b)

let beyond ~n q = n - int_of_float (Float.ceil (q *. float_of_int n))
let reportable ~n q = beyond ~n q >= 10

let ladder = [ 0.999; 0.99; 0.95; 0.9; 0.75; 0.5 ]

let highest_percentile ~n = List.find_opt (reportable ~n) ladder

(* Split samples (in arrival order) into at most [max_windows] equal
   consecutive windows of at least [min_window] samples, take the p50
   and p99 of each, and return the medians over the windows: a stall
   inflates the p99 of its own window only. *)
let windowed_quantiles samples ~min_window ~max_windows =
  let n = Array.length samples in
  let k = max 1 (min max_windows (n / min_window)) in
  let per = n / k in
  let p50 = Array.make k 0. and p99 = Array.make k 0. in
  for w = 0 to k - 1 do
    let len = if w = k - 1 then n - (w * per) else per in
    let s = sorted (Array.sub samples (w * per) len) in
    p50.(w) <- quantile_sorted s 0.5;
    p99.(w) <- quantile_sorted s 0.99
  done;
  (median p50, median p99)

(* Completion times of a fixed amount of work started at [t0], cut into
   [chunks] runs of equal counts: the median of the chunks' rates. *)
let chunk_rate ~t0 done_at ~chunks =
  let n = Array.length done_at in
  let per = n / chunks in
  if per = 0 then float_of_int n /. (done_at.(n - 1) -. t0)
  else
    median
      (Array.init chunks (fun k ->
           let start = if k = 0 then t0 else done_at.((k * per) - 1) in
           float_of_int per /. (done_at.(((k + 1) * per) - 1) -. start)))

(* --- ladder spans ---------------------------------------------------- *)

type span = {
  rung : int;
  name : string;
  frame : int;  (* global frame id, shared by every rung that replays it *)
  slot : int;   (* slot within the session; -1 on frame-level rungs *)
  t0 : float;   (* microseconds *)
  t1 : float;
}

let duration s = s.t1 -. s.t0

(* A parent's children are the spans one rung below with the same frame
   id (and the same slot, when the parent is itself slot-level); the
   parent's self time is its duration minus theirs. *)
let self_times ~parents ~children =
  let by_frame = Hashtbl.create 1024 and by_slot = Hashtbl.create 1024 in
  let bump tbl k d =
    Hashtbl.replace tbl k (d +. Option.value (Hashtbl.find_opt tbl k) ~default:0.)
  in
  List.iter
    (fun c ->
      bump by_frame c.frame (duration c);
      bump by_slot (c.frame, c.slot) (duration c))
    children;
  List.map
    (fun p ->
      let below =
        if p.slot < 0 then Hashtbl.find_opt by_frame p.frame
        else Hashtbl.find_opt by_slot (p.frame, p.slot)
      in
      duration p -. Option.value below ~default:0.)
    parents

(* --- Prometheus histograms ------------------------------------------- *)

(* Cumulative [(le, count)] buckets, ascending [le], the last one +Inf. *)
type buckets = (float * float) list

let bucket_delta ~before ~after =
  List.map
    (fun (le, c) ->
      let c0 = Option.value (List.assoc_opt le before) ~default:0. in
      (le, c -. c0))
    after

let bucket_count (b : buckets) =
  match List.rev b with [] -> 0. | (_, c) :: _ -> c

(* Quantile of a bucketed distribution: find the bucket holding rank
   [q * total] and interpolate linearly inside it.  The first bucket
   starts at 0; an answer in the overflow bucket is its lower edge. *)
let bucket_quantile (b : buckets) q =
  let total = bucket_count b in
  if total <= 0. then nan
  else
    let target = q *. total in
    let rec go lo_edge lo_cum = function
      | [] -> lo_edge
      | (le, cum) :: rest ->
          if cum >= target && cum > lo_cum then
            if Float.is_finite le then
              lo_edge +. ((le -. lo_edge) *. (target -. lo_cum) /. (cum -. lo_cum))
            else lo_edge
          else go (if Float.is_finite le then le else lo_edge) cum rest
    in
    go 0. 0. b

(* --- /proc ----------------------------------------------------------- *)

(* [VmHWM:    1234 kB] from /proc/PID/status, in kB. *)
let vmhwm_kb status =
  String.split_on_char '\n' status
  |> List.find_map (fun line ->
         match String.split_on_char ':' line with
         | [ "VmHWM"; rest ] -> (
             match
               String.split_on_char ' ' (String.trim rest)
               |> List.filter (fun s -> s <> "")
             with
             | [ v; "kB" ] -> int_of_string_opt v
             | _ -> None)
         | _ -> None)

(* utime + stime (fields 14 and 15) from /proc/PID/stat, in clock
   ticks.  The command name (field 2) is parenthesised and may hold
   spaces, so fields are counted after its closing parenthesis. *)
let cpu_ticks stat =
  match String.rindex_opt stat ')' with
  | None -> None
  | Some i -> (
      let rest = String.sub stat (i + 1) (String.length stat - i - 1) in
      let fields =
        String.split_on_char ' ' (String.trim rest) |> List.filter (fun s -> s <> "")
      in
      (* [fields] starts at field 3 (state) *)
      match (List.nth_opt fields 11, List.nth_opt fields 12) with
      | Some u, Some s -> (
          match (int_of_string_opt u, int_of_string_opt s) with
          | Some u, Some s -> Some (u + s)
          | _ -> None)
      | _ -> None)
