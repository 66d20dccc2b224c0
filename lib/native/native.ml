(* Native execution of schedules.  native.mli describes the compiled
   nests and why they keep the reference interpreter's results bit for
   bit. *)

module Ir = Lf_ir.Ir
module Interp = Lf_ir.Interp
module Schedule = Lf_core.Schedule
module Pool = Lf_parallel.Pool
module Spin_barrier = Lf_parallel.Spin_barrier
module A1 = Bigarray.Array1

type ba = (float, Bigarray.float64_elt, Bigarray.c_layout) A1.t

external dlopen : string -> nativeint = "lf_native_dlopen"
external dlsym : nativeint -> string -> nativeint = "lf_native_dlsym"

(* [call_nest fn arrays ranges]: [arrays] in declaration order. *)
external call_nest : nativeint -> ba array -> (int * int) array -> unit
  = "lf_native_call"

exception Compile_failed of string

(* ------------------------------------------------------------------ *)
(* Lowering                                                            *)

(* One subscript of one reference, for the bounds check:
   [b_const + sum_l b_coeff.(l) * v_l] must lie in [0, b_ext). *)
type bound = {
  b_array : string;
  b_dim : int;
  b_ext : int;
  b_coeff : int array;
  b_const : int;
}

type cstmt = {
  s_glo : int array;  (* guard interval per level *)
  s_ghi : int array;
  s_bounds : bound array;  (* every subscript, lhs included *)
}

type code = {
  c_fns : nativeint array;  (* lf_nest<k>, one per nest *)
  c_nests : (int * cstmt array) array;  (* loop levels and statements *)
}

let var_index vars x =
  match Array.find_index (String.equal x) vars with
  | Some i -> i
  | None -> invalid_arg ("Native: unbound variable " ^ x)

(* Per-dimension subscripts of [r], an array of extents [ext], as
   coefficient rows over [vars], and its row-major flat form. *)
let subscripts ext vars (r : Ir.aref) =
  let rank = Array.length ext in
  if List.length r.Ir.index <> rank then
    invalid_arg ("Native: rank mismatch on " ^ r.Ir.array);
  let bounds =
    Array.of_list
      (List.mapi
         (fun d (a : Ir.affine) ->
           let coeff = Array.make (Array.length vars) 0 in
           List.iter
             (fun (c, v) ->
               let i = var_index vars v in
               coeff.(i) <- coeff.(i) + c)
             a.Ir.terms;
           { b_array = r.Ir.array; b_dim = d; b_ext = ext.(d); b_coeff = coeff;
             b_const = a.Ir.const })
         r.Ir.index)
  in
  let coeff = Array.make (Array.length vars) 0 and base = ref 0 in
  Array.iter
    (fun b ->
      (* Horner over the dimensions: row-major strides *)
      base := (!base * b.b_ext) + b.b_const;
      Array.iteri (fun l c -> coeff.(l) <- (coeff.(l) * b.b_ext) + c) b.b_coeff)
    bounds;
  (bounds, coeff, !base)

(* A subtree without reads folds with the interpreter's own evaluator. *)
let no_arrays = Interp.create { Ir.pname = ""; decls = []; nests = [] }

let const_value e =
  if Ir.expr_reads e = [] then Some (Interp.eval_expr no_arrays (fun _ -> 0) e)
  else None

(* Append statement [s] of a nest over [vars] to [b] as one C
   statement: its guard as an [if], every reference as [a<i>[flat
   address]], every constant subtree folded and read from [k<i>], the
   nest's name for its bits in [consts] (see [lower_nest]), every
   negation through [lf_neg] (see [prelude]). *)
let lower_stmt b consts find vars (s : Ir.stmt) =
  let depth = Array.length vars in
  let bounds = ref [] in
  let c_ref (r : Ir.aref) =
    let i, ext = find r.Ir.array in
    let bs, coeff, base = subscripts ext vars r in
    bounds := Array.to_list bs @ !bounds;
    Printf.bprintf b "a%d[%d" i base;
    Array.iteri
      (fun l c -> if c <> 0 then Printf.bprintf b " + %d * v%d" c l)
      coeff;
    Buffer.add_char b ']'
  in
  let rec c_expr e =
    match (const_value e, e) with
    | Some k, _ ->
      let bits = Int64.bits_of_float k in
      let i =
        match List.assoc_opt bits !consts with
        | Some i -> i
        | None ->
          let i = List.length !consts in
          consts := (bits, i) :: !consts;
          i
      in
      Printf.bprintf b "k%d" i
    | None, Ir.Read r -> c_ref r
    | None, Ir.Neg x ->
      Buffer.add_string b "lf_neg(";
      c_expr x;
      Buffer.add_char b ')'
    | None, Ir.Bin (op, x, y) ->
      Buffer.add_char b '(';
      c_expr x;
      Buffer.add_string b
        (match op with Ir.Add -> " + " | Sub -> " - " | Mul -> " * " | Div -> " / ");
      c_expr y;
      Buffer.add_char b ')'
    | None, Ir.Const _ -> assert false
  in
  let glo = Array.make depth min_int and ghi = Array.make depth max_int in
  Buffer.add_string b "    if (1";
  List.iter
    (fun (v, lo, hi) ->
      let l = var_index vars v in
      glo.(l) <- max glo.(l) lo;
      ghi.(l) <- min ghi.(l) hi;
      Printf.bprintf b " && v%d >= %d && v%d <= %d" l lo l hi)
    s.Ir.guard;
  Buffer.add_string b ") ";
  c_ref s.Ir.lhs;
  Buffer.add_string b " = ";
  c_expr s.Ir.rhs;
  Buffer.add_string b ";\n";
  { s_glo = glo; s_ghi = ghi; s_bounds = Array.of_list !bounds }

(* Append nest [k] as [lf_nest<k>]: one box, every level over its
   [lo, hi], the statements in body order at each point — the
   interpreter's point order.  Distinct arrays never overlap, hence
   [restrict].  Each distinct constant is bound once, before the
   loops, from its IEEE-754 bits through [lf_k] ([%h] prints infinity
   and nan, which C cannot parse): the loop body keeps no [asm], so the
   C compiler may vectorize it, and the constants stay opaque. *)
let lower_nest b find k (n : Ir.nest) =
  let vars = Array.of_list (Ir.nest_vars n) in
  let depth = Array.length vars in
  let body = Buffer.create 1024 and consts = ref [] in
  let stmts = List.map (lower_stmt body consts find vars) n.Ir.body in
  Printf.bprintf b
    "\nvoid lf_nest%d(double *const *arrays, const long *lo, const long *hi)\n{\n"
    k;
  List.iter
    (fun a ->
      let i = fst (find a) in
      Printf.bprintf b "  double *const restrict a%d = arrays[%d];\n" i i)
    (Ir.nest_arrays n);
  List.iter
    (fun (bits, i) ->
      Printf.bprintf b "  const double k%d = lf_k(0x%LxULL);\n" i bits)
    (List.rev !consts);
  for l = 0 to depth - 1 do
    Printf.bprintf b "  for (long v%d = lo[%d], h%d = hi[%d]; v%d <= h%d; v%d++)\n"
      l l l l l l l
  done;
  Buffer.add_string b "  {\n";
  Buffer.add_buffer b body;
  Buffer.add_string b "  }\n}\n";
  (depth, Array.of_list stmts)

(* The C compiler may rewrite arithmetic in ways that are exact for
   every number but not for the sign of a NaN: [-x + y] to [y - x],
   [x * -1] to [-x].  The empty [asm] hides constants and negations
   from it, so each operation stays the interpreter's. *)
let prelude =
  "/* Generated by lf_native: one function per loop nest. */\n\
   typedef union { unsigned long long b; double d; } lf_u;\n\
   static inline double lf_k(unsigned long long b)\n\
   { __asm__(\"\" : \"+r\"(b)); lf_u u = { .b = b }; return u.d; }\n\
   static inline double lf_neg(double x)\n\
   { lf_u u = { .d = x }; u.b ^= 1ULL << 63; __asm__(\"\" : \"+r\"(u.b)); return u.d; }\n"

(* [p]'s nests as C source, and their loop levels and statements. *)
let emit (p : Ir.program) =
  let decls = Hashtbl.create 16 in
  List.iteri
    (fun i (d : Ir.decl) ->
      Hashtbl.replace decls d.Ir.aname (i, Array.of_list d.Ir.extents))
    p.Ir.decls;
  let find a =
    match Hashtbl.find_opt decls a with
    | Some x -> x
    | None -> invalid_arg ("Native: unknown array " ^ a)
  in
  let b = Buffer.create 4096 in
  Buffer.add_string b prelude;
  let nests = List.mapi (lower_nest b find) p.Ir.nests in
  (Buffer.contents b, Array.of_list nests)

(* [-O2]'s own cost model vectorizes none of the benchmark's nests; the
   dynamic one vectorizes them all, with SSE2's per-lane IEEE
   operations.  Never [-O3]: with this cost model its loop distribution
   miscompiles test/programs/distribute.loop on GCC 12.  Never
   [-ffast-math] or [-march=native]: a reassociated or contracted (FMA)
   operation breaks bit-identity with the interpreter. *)
let flags =
  [ "-O2"; "-fvect-cost-model=dynamic"; "-ffp-contract=off"; "-fPIC"; "-shared" ]

let compile_failed m =
  Compile_failed (Printf.sprintf "C compiler %s failed: %s" Cc_config.compiler m)

let rec wait pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait pid

(* A compile in flight: the compiler [pid] writing [so] in [dir]. *)
type job = { dir : string; so : string; log : string; pid : int }

let remove_dir dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

(* Start compiling [source] in a fresh temporary directory, which is
   removed again if the compiler cannot be started.  The object is
   named after the source's digest, so a path the dynamic loader has
   seen before always names the same code. *)
let start_compile hex source =
  let dir = Filename.temp_dir "lf_native" "" in
  let path f = Filename.concat dir f in
  let c = path "nests.c" and so = path (hex ^ ".so") and log = path "cc.log" in
  match
    Out_channel.with_open_bin c (fun oc -> output_string oc source);
    let fd =
      Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_CLOEXEC ] 0o600
    in
    Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
    let argv = Array.of_list ((Cc_config.compiler :: flags) @ [ "-o"; so; c ]) in
    Unix.create_process Cc_config.compiler argv Unix.stdin fd fd
  with
  | pid -> { dir; so; log; pid }
  | exception e ->
    remove_dir dir;
    raise
      (match e with
      | Unix.Unix_error (e, _, _) -> compile_failed (Unix.error_message e)
      | e -> e)

(* Wait for [j]'s compiler, apply [k] to its exit status, and remove
   the directory. *)
let reap j k =
  Fun.protect ~finally:(fun () -> remove_dir j.dir) (fun () -> k (wait j.pid))

(* The object [j] compiled, loaded: it stays mapped once its file is
   removed. *)
let load_object j = function
  | Unix.WEXITED 0 -> (
    try dlopen j.so with Failure m -> raise (compile_failed m))
  | _ ->
    In_channel.with_open_bin j.log In_channel.input_line
    |> Option.value ~default:"no error output"
    |> compile_failed |> raise

(* Loaded nest functions by source digest, in this process only: the
   objects themselves are never kept on disk. *)
let memo : (Digest.t, nativeint array) Hashtbl.t = Hashtbl.create 16
let memo_lock = Mutex.create ()

(* Emit [p]'s nests, and run [f ()] while the C compiler builds them
   (unless this process already has); returns the loaded code and
   [f]'s result.  The compiler is waited for even when [f] raises. *)
let lower_during (p : Ir.program) f =
  let source, nests = emit p in
  let key = Digest.string source in
  let code fns = { c_fns = fns; c_nests = nests } in
  match Mutex.protect memo_lock (fun () -> Hashtbl.find_opt memo key) with
  | Some fns -> (code fns, f ())
  | None ->
    let typed g = try g () with Sys_error m -> raise (compile_failed m) in
    let j = typed (fun () -> start_compile (Digest.to_hex key) source) in
    let r =
      match f () with
      | r -> r
      | exception e ->
        reap j ignore;
        raise e
    in
    let h = typed (fun () -> reap j (load_object j)) in
    let fns =
      Mutex.protect memo_lock @@ fun () ->
      match Hashtbl.find_opt memo key with
      | Some fns -> fns (* another domain loaded it meanwhile *)
      | None ->
        let fns =
          Array.init (Array.length nests) (fun k ->
              dlsym h (Printf.sprintf "lf_nest%d" k))
        in
        Hashtbl.add memo key fns;
        fns
    in
    (code fns, r)

(* ------------------------------------------------------------------ *)
(* Buffers                                                             *)

type buffers = {
  b_prog : Ir.program;
  b_tbl : (string, ba) Hashtbl.t;
  b_code : code;  (* b_prog's nests *)
  b_arrays : ba array;  (* b_prog's arrays, in declaration order *)
}

let new_ba n = A1.create Bigarray.float64 Bigarray.c_layout n

let fill_array ~init name (a : ba) =
  for k = 0 to A1.dim a - 1 do
    A1.set a k (init name k)
  done

(* [p]'s arrays from [tbl], in declaration order; the nests index them
   unchecked, so each size is checked against its declaration. *)
let arrays_of tbl (p : Ir.program) =
  Array.of_list
    (List.map
       (fun (d : Ir.decl) ->
         match Hashtbl.find_opt tbl d.Ir.aname with
         | Some a when A1.dim a = Ir.num_elements d -> a
         | _ -> invalid_arg ("Native: no buffer of the right size for " ^ d.Ir.aname))
       p.Ir.decls)

(* The arrays are allocated and filled while the nests compile. *)
let create ?(init = Interp.default_init) (p : Ir.program) =
  let code, tbl =
    lower_during p (fun () ->
        let tbl = Hashtbl.create 16 in
        List.iter
          (fun (d : Ir.decl) ->
            let a = new_ba (Ir.num_elements d) in
            fill_array ~init d.Ir.aname a;
            Hashtbl.replace tbl d.Ir.aname a)
          p.Ir.decls;
        tbl)
  in
  { b_prog = p; b_tbl = tbl; b_code = code; b_arrays = arrays_of tbl p }

let reset ?(init = Interp.default_init) bufs =
  List.iter
    (fun (d : Ir.decl) ->
      fill_array ~init d.Ir.aname (Hashtbl.find bufs.b_tbl d.Ir.aname))
    bufs.b_prog.Ir.decls

let to_store bufs =
  let arrays = Hashtbl.create 16 and extents = Hashtbl.create 16 in
  List.iter
    (fun (d : Ir.decl) ->
      let a = Hashtbl.find bufs.b_tbl d.Ir.aname in
      let copy = Array.create_float (A1.dim a) in
      for k = 0 to A1.dim a - 1 do
        Array.unsafe_set copy k (A1.unsafe_get a k)
      done;
      Hashtbl.replace arrays d.Ir.aname copy;
      Hashtbl.replace extents d.Ir.aname (Array.of_list d.Ir.extents))
    bufs.b_prog.Ir.decls;
  { Interp.arrays; extents }

let sum_into acc (a : ba) =
  let s = ref acc in
  for k = 0 to A1.dim a - 1 do
    s := !s +. A1.unsafe_get a k
  done;
  !s

(* Interp.checksum's additions in its order: arrays by sorted name,
   elements by index. *)
let checksum bufs =
  List.map (fun (d : Ir.decl) -> d.Ir.aname) bufs.b_prog.Ir.decls
  |> List.sort_uniq String.compare
  |> List.fold_left
       (fun acc name -> sum_into acc (Hashtbl.find bufs.b_tbl name))
       0.0

(* ------------------------------------------------------------------ *)
(* Bounds                                                              *)

(* Raise Interp.Out_of_bounds if any statement instance of box [b]
   would touch an element outside its array.  Over the rectangle box
   ∩ guard an affine subscript takes its extremes at corners, so
   checking those two values per subscript is exact. *)
let check_bound lo hi bd =
  let least = ref bd.b_const and most = ref bd.b_const in
  for l = 0 to Array.length bd.b_coeff - 1 do
    let a = bd.b_coeff.(l) * lo.(l) and z = bd.b_coeff.(l) * hi.(l) in
    least := !least + Int.min a z;
    most := !most + Int.max a z
  done;
  if !least < 0 || !most >= bd.b_ext then
    raise
      (Interp.out_of_bounds ~array:bd.b_array ~dim:bd.b_dim
         ~index:(if !least < 0 then !least else !most)
         ~extent:bd.b_ext)

let check_box code (b : Schedule.box) =
  let ranges = b.Schedule.ranges in
  let depth = Array.length ranges in
  let levels, stmts = code.c_nests.(b.Schedule.nest) in
  (* the nest function reads one range per level *)
  if levels <> depth then
    invalid_arg "Native: box ranges do not match the nest's levels";
  let lo = Array.make depth 0 and hi = Array.make depth 0 in
  Array.iter
    (fun s ->
      let empty = ref false in
      for l = 0 to depth - 1 do
        lo.(l) <- Int.max (fst ranges.(l)) s.s_glo.(l);
        hi.(l) <- Int.min (snd ranges.(l)) s.s_ghi.(l);
        if lo.(l) > hi.(l) then empty := true
      done;
      if not !empty then Array.iter (check_bound lo hi) s.s_bounds)
    stmts

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)

let run_into ?(steps = 1) ?pool bufs (t : Schedule.t) =
  let prog = t.Schedule.prog in
  let code, arrays =
    if prog == bufs.b_prog then (bufs.b_code, bufs.b_arrays)
    else
      let arrays = arrays_of bufs.b_tbl prog in
      (fst (lower_during prog ignore), arrays)
  in
  let phases = Array.of_list t.Schedule.phases in
  let nprocs = t.Schedule.nprocs in
  Array.iter (fun ph -> Array.iter (List.iter (check_box code)) ph) phases;
  let exec pool =
    if Pool.size pool <> nprocs then
      invalid_arg
        (Printf.sprintf "Native.run: pool has %d workers, schedule wants %d"
           (Pool.size pool) nprocs);
    let bar = Spin_barrier.create nprocs in
    Pool.run pool (fun w ->
        for _step = 1 to steps do
          for pi = 0 to Array.length phases - 1 do
            List.iter
              (fun (b : Schedule.box) ->
                call_nest code.c_fns.(b.Schedule.nest) arrays b.Schedule.ranges)
              phases.(pi).(w);
            Spin_barrier.wait bar
          done
        done)
  in
  match pool with Some p -> exec p | None -> Pool.with_pool nprocs exec

let run ?init ?steps ?pool (t : Schedule.t) =
  let bufs = create ?init t.Schedule.prog in
  run_into ?steps ?pool bufs t;
  bufs

let verify ?init ?(steps = 1) ?pool (t : Schedule.t) =
  match
    let bufs = run ?init ~steps ?pool t in
    (bufs, Interp.run ?init ~steps t.Schedule.prog)
  with
  | exception Interp.Out_of_bounds m -> Error ("subscript out of range: " ^ m)
  | exception Compile_failed m -> Error m
  | bufs, reference -> (
    match Interp.diff reference (to_store bufs) with
    | None -> Ok ()
    | Some (name, k, want, got) ->
      Error
        (Printf.sprintf
           "native execution diverges from the reference: %s[%d] = %h, \
            expected %h"
           name k got want))

type timing = {
  t_measure : Bench_timer.measurement;
  t_checksum : float;
  t_nprocs : int;
  t_steps : int;
}

let measure ?policy ?(steps = 1) ?pool (t : Schedule.t) =
  let bufs = create t.Schedule.prog in
  let go pool =
    Bench_timer.measure ?policy
      ~prepare:(fun () -> reset bufs)
      (fun () -> run_into ~steps ~pool bufs t)
  in
  let m =
    match pool with
    | Some p -> go p
    | None -> Pool.with_pool t.Schedule.nprocs go
  in
  {
    t_measure = m;
    t_checksum = checksum bufs;
    t_nprocs = t.Schedule.nprocs;
    t_steps = steps;
  }
