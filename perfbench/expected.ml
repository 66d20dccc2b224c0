(* Reference values the benchmark keeps, so its correctness gates need
   no slow recomputation at run time.  Regenerate with
   `perfbench.exe --workload record-expected ...` (see run.py --help). *)

(* The reference interpreter's Interp.checksum for a membound kernel:
   ((kernel, n, init offset), checksum). *)
let native_table : ((string * int * int) * float) list =
  [
    (("ll18", 1749, 0), 0x1.eabdd21182c88p+24);
    (("ll18", 1749, 1000003), 0x1.eabd47fe89d4ep+24);
    (("ll18", 1749, 2000029), 0x1.eabb38fa61f0ap+24);
    (("ll18", 1749, 3000017), 0x1.eabe89e0cfb94p+24);
    (("calc", 2142, 0), 0x1.a4750ab4bcdcp+24);
    (("calc", 2142, 1000003), 0x1.a473a3e3b28p+24);
    (("calc", 2142, 2000029), 0x1.a46f635b41d4p+24);
    (("calc", 2142, 3000017), 0x1.a4616ba3c77p+24);
    (("filter", 1515, 0), 0x1.19722b4eb24f9p+28);
    (("filter", 1515, 1000003), 0x1.195c19a8d23f8p+28);
    (("filter", 1515, 2000029), 0x1.195c2034bd9e5p+28);
    (("filter", 1515, 3000017), 0x1.196e188679b3cp+28);
  ]

let native kernel n offset = List.assoc_opt (kernel, n, offset) native_table

(* The sweep-cold observables hash (Wl_sweep.observables_hash) of the
   unique requests of the mix at each seeded size set. *)
let sweep_table : (int list * string) list =
  [
    ([108; 112; 116], "3610fbbd71aca8fc1244a102dffca9c0");
    ([106; 112; 118], "7ee127651d81cfcf37c92205e91dc7f2");
    ([104; 112; 120], "aa942d9e4cc900a87487c2cc0eefb54d");
    ([102; 112; 122], "b6dc99a0c6b062927f8a77f8c6b9147d");
  ]

let sweep sizes = List.assoc_opt sizes sweep_table
