(* Monotonic time in seconds, with the nanosecond resolution of
   CLOCK_MONOTONIC: every latency and span in the benchmark uses it. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
