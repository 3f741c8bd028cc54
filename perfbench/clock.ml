(* Monotonic time with nanosecond resolution: spans of a few hundred
   nanoseconds stay measurable, and a wall-clock step cannot bend a
   latency. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
let now_us () = Int64.to_float (Monotonic_clock.now ()) *. 1e-3
