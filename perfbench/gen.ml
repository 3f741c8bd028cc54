(* Workload table and seeded input generation.  The daemon and the
   solver only ever see the loads generated here; the seed is the
   benchmark's own argument. *)

type serve = {
  scenario : string;      (* base scenario of every session *)
  sessions : int;
  conns : int;            (* load connections, all driven by one thread *)
  slots_per_frame : int;
  saturation : float;     (* closed-loop decisions/s of the seed code on the reference box *)
  open_share : float;     (* share of [saturation] the open loop offers *)
  durable : bool;         (* --log-dir, crossed by --cement-every, SIGKILL + --resume *)
  cement_every : int;
  price_slots : int;      (* served prefix priced against the offline optimum *)
}

type offline = {
  instances : (string * int) list;  (* base scenario, horizon *)
  eps : float;
}

type kind = Serve of serve | Offline of offline

let serve_large =
  { scenario = "large-fleet"; sessions = 4; conns = 2; slots_per_frame = 3;
    saturation = 1350.; open_share = 0.3; durable = false; cement_every = 0; price_slots = 128 }

(* Keep in step with the [why] lines of BENCHMARK.json and the table in
   perfbench/README.md. *)
let workloads =
  [ ( "serve-small",
      Serve
        { scenario = "cpu-gpu"; sessions = 32; conns = 1; slots_per_frame = 1;
          saturation = 40000.; open_share = 0.5; durable = false; cement_every = 0; price_slots = 1024 } );
    ("serve-large", Serve serve_large);
    ( "serve-durable",
      Serve
        { scenario = "cpu-gpu"; sessions = 32; conns = 1; slots_per_frame = 1;
          saturation = 10000.; open_share = 0.5; durable = true; cement_every = 10000; price_slots = 512 } );
    ( "offline-solve",
      Offline { instances = [ ("large-fleet", 384); ("three-tier", 1536) ]; eps = 0.25 } ) ]

(* Each phase gets half the measured seconds: the open loop offers its
   share of the seed's saturation for that long, and the closed loop's
   fixed frame count takes about that long at saturation.  serve-large
   offers 0.3, not 0.5, so that its ~3 ms frames seldom meet in one
   daemon round. *)
let open_rate w = w.open_share *. w.saturation /. float_of_int w.slots_per_frame

let closed_frames w ~seconds =
  int_of_float
    (Float.round
       (w.saturation *. seconds /. 2.
       /. float_of_int (w.sessions * w.slots_per_frame)))

(* --- loads ----------------------------------------------------------- *)

(* splitmix64's finaliser: a stateless hash, so the load of any
   (stream, slot) is a pure function of the seed. *)
let mix x =
  let open Int64 in
  let x = mul (logxor x (shift_right_logical x 30)) 0xbf58476d1ce4e5b9L in
  let x = mul (logxor x (shift_right_logical x 27)) 0x94d049bb133111ebL in
  logxor x (shift_right_logical x 31)

let unit_float ~seed ~stream ~slot =
  let h =
    mix
      (Int64.add
         (mix (Int64.add (mix (Int64.of_int seed)) (Int64.of_int stream)))
         (Int64.of_int slot))
  in
  Int64.to_float (Int64.shift_right_logical h 11) /. 9007199254740992.

let capacity scenario =
  match Core.Scenarios.by_name scenario with
  | None -> invalid_arg ("perfbench: unknown scenario " ^ scenario)
  | Some mk ->
      Array.fold_left
        (fun acc st ->
          acc +. (float_of_int st.Core.Server_type.count *. st.Core.Server_type.cap))
        0. (mk None).Core.Instance.types

(* A diurnal day of 96 slots with a per-stream phase and +-8% noise,
   between 5% and 92% of the fleet's capacity. *)
let load ~seed ~cap ~stream ~slot =
  let phase = 96. *. unit_float ~seed ~stream ~slot:(-1) in
  let day =
    0.5 -. (0.5 *. cos (2. *. Float.pi *. (float_of_int slot +. phase) /. 96.))
  in
  let noise = 1. +. (0.16 *. (unit_float ~seed ~stream ~slot -. 0.5)) in
  cap *. Float.min 0.92 (Float.max 0.05 ((0.1 +. (0.7 *. day)) *. noise))

let loads ~seed ~cap ~stream ~from ~len =
  Array.init len (fun i -> load ~seed ~cap ~stream ~slot:(from + i))

(* The scenario's fleet and cost functions under the given loads — the
   instance a served session of that scenario runs on. *)
let instance scenario load =
  match Core.Scenarios.by_name scenario with
  | None -> invalid_arg ("perfbench: unknown scenario " ^ scenario)
  | Some mk ->
      let base = mk None in
      let types = base.Core.Instance.types in
      let fns =
        Array.init (Array.length types) (fun j -> base.Core.Instance.cost ~time:0 ~typ:j)
      in
      Core.Instance.make_static ~types ~load ~fns ()

(* The serving traffic of a workload's traced run; offline-solve serves
   serve-large's, on the fleet of its first (d = 2) instance. *)
let serve_of = function Serve s -> s | Offline _ -> serve_large
