(* Host speed probe.

   The shared hosts this benchmark runs on change speed by up to half
   for tens of seconds at a time, for every process at once: a fixed
   loop takes 0.75 ms in one stretch and 1.3 ms in the next, and a
   whole run can fall inside one slow stretch, so no repetition within
   a run averages it out. The benchmark therefore times this fixed
   kernel between the calls it measures and scales each timing to a
   host on which a probe reads [reference_ms].

   The kernel belongs to the benchmark, allocates nothing after start-up
   and touches a 512 KiB array, so no change to the program under test
   moves it. *)

let reference_ms = 1.0

let buf = Array.make 65536 1.0

let kernel () =
  let t0 = Unix.gettimeofday () in
  let mask = Array.length buf - 1 in
  let j = ref 0 in
  for i = 0 to 130_000 do
    j := (!j + 40503) land mask;
    Array.unsafe_set buf !j ((Array.unsafe_get buf !j *. 1.0000001) +. float_of_int (i land 7))
  done;
  1e3 *. (Unix.gettimeofday () -. t0)

(* [probe ()] is the kernel's duration in milliseconds, three passes
   summed from the fastest: another process taking the CPU for a moment
   only slows a pass, so the fastest pass is the host's own speed *)
let probe () = 3.0 *. List.fold_left Float.min Float.infinity (List.init 3 (fun _ -> kernel ()))

(* [slowdown ms] is how much slower than the reference host the probes
   [ms] (at least one) found this one: a timing divided by it, or a
   rate multiplied by it, reads as on the reference host *)
let slowdown ms = Stats.median ms /. reference_ms
