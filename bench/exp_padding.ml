(* Figures 18 and 20: cache misses under intra-array padding versus
   cache partitioning for the fused LL18 loop (nine 512x512 arrays).

   The paper measures the misses of a single processor during parallel
   execution; we report processor 0 of an 8-processor run.  Padding
   perturbs the mapping erratically; cache partitioning yields the
   minimum directly. *)

module Machine = Lf_machine.Machine
module Exec = Lf_machine.Exec
module Sim = Lf_machine.Sim

let nprocs = 8

let run_padding_sweep cfg machine =
  let n = Util.scale cfg 512 128 in
  let p = Lf_kernels.Ll18.program ~n () in
  let strip = Util.strip_for machine p in
  let pads = Util.scale cfg (List.init 21 (fun i -> i + 1)) [ 1; 3; 5; 7; 9; 11 ] in
  Util.pr "%8s  %18s  %18s@." "padding" "no fusion (proc0)" "fusion (proc0)";
  (* the sweep only reads miss counts, never the store: use the
     address-stream fast path (bit-identical counters, no FP work).
     The whole sweep goes through Batch.run_with as one request list,
     so a warm result store answers it without simulating. *)
  let mode = Sim.Run_compressed in
  let pair layout =
    [
      Sim.unfused ~mode ~layout ~machine ~nprocs p;
      Sim.fused ~mode ~layout ~machine ~nprocs ~strip p;
    ]
  in
  let labels =
    List.map string_of_int pads @ [ "cachept" ]
  in
  let requests =
    List.concat_map (fun pad -> pair (Util.padded_layout ~pad p)) pads
    @ pair (Util.partitioned_layout machine p)
  in
  let results = Util.run_requests requests in
  List.iteri
    (fun i label ->
      let u = results.(2 * i) and f = results.((2 * i) + 1) in
      Util.pr "%8s  %18d  %18d@." label (Exec.proc0_misses u)
        (Exec.proc0_misses f))
    labels;
  let u = results.(Array.length results - 2)
  and f = results.(Array.length results - 1) in
  (Exec.proc0_misses f, Exec.proc0_misses u)

let fig18 cfg =
  Util.header
    "Figure 18: misses vs amount of padding, fused LL18 (Convex cache)";
  ignore (run_padding_sweep cfg Machine.convex)

let fig20 cfg =
  Util.header "Figure 20: cache partitioning for LL18";
  Util.subheader "(a) KSR2";
  ignore (run_padding_sweep cfg Machine.ksr2);
  Util.subheader "(b) Convex";
  ignore (run_padding_sweep cfg Machine.convex);
  Util.pr
    "@.Expected shape: padding curves vary erratically; the cache-@.\
     partitioned row is at (or near) the minimum, and fusion without@.\
     conflict avoidance can lose its benefit entirely.@."
