(* What one run reports: operations attempted and failed, the metrics,
   and human-readable lines (sample counts, percentile ranks) printed
   above the final JSON object. *)

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable metrics : (string * float * string) list;  (* reversed *)
  mutable lines : string list;                        (* reversed *)
}

let create () = { attempted = 0; failed = 0; metrics = []; lines = [] }
let attempt ?(n = 1) r = r.attempted <- r.attempted + n
let fail ?(n = 1) r = r.failed <- r.failed + n
let note r fmt = Printf.ksprintf (fun s -> r.lines <- s :: r.lines) fmt
let metric r name unit v = r.metrics <- (name, v, unit) :: r.metrics

(* A timing distribution: its median and the highest percentile with at
   least ten samples beyond it, with the sample count. *)
let describe r label samples ~unit =
  let n = Array.length samples in
  let s = Arith.sorted samples in
  match Arith.highest_percentile ~n with
  | None -> note r "%-34s n=%-7d too few samples for a percentile" label n
  | Some 0.5 -> note r "%-34s n=%-7d p50=%.4g %s" label n (Arith.quantile_sorted s 0.5) unit
  | Some q ->
      note r "%-34s n=%-7d p50=%.4g %s  p%g=%.4g %s" label n (Arith.quantile_sorted s 0.5)
        unit (100. *. q) (Arith.quantile_sorted s q) unit

let json_float v =
  if not (Float.is_finite v) then invalid_arg "perfbench: non-finite metric";
  Printf.sprintf "%.12g" v

let print r ~correct =
  List.iter print_endline (List.rev r.lines);
  let metrics =
    List.rev r.metrics
    |> List.map (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_float v) unit)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct r.attempted r.failed (String.concat ", " metrics)
