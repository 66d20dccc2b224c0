(* Native execution of schedules.  native.mli describes the chunked
   lowering and why it keeps the reference interpreter's results bit
   for bit. *)

module Ir = Lf_ir.Ir
module Interp = Lf_ir.Interp
module Dep = Lf_dep.Dep
module Schedule = Lf_core.Schedule
module Pool = Lf_parallel.Pool
module Spin_barrier = Lf_parallel.Spin_barrier
module A1 = Bigarray.Array1

type ba = (float, Bigarray.float64_elt, Bigarray.c_layout) A1.t

type buffers = {
  b_prog : Ir.program;
  b_tbl : (string, ba) Hashtbl.t;
}

let new_ba n = A1.create Bigarray.float64 Bigarray.c_layout n

let fill_array ~init name (a : ba) =
  for k = 0 to A1.dim a - 1 do
    A1.set a k (init name k)
  done

let create ?(init = Interp.default_init) (p : Ir.program) =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (d : Ir.decl) ->
      let a = new_ba (Ir.num_elements d) in
      fill_array ~init d.Ir.aname a;
      Hashtbl.replace tbl d.Ir.aname a)
    p.Ir.decls;
  { b_prog = p; b_tbl = tbl }

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
(* Chunk code                                                          *)

(* Most inner-loop points one statement runs over per dispatch. *)
let max_chunk = 256

(* A strided float64 view: point k of the current chunk is
   [buf.{at + step * k}].  A constant is a one-element view of step 0. *)
type vec = { buf : ba; mutable at : int; step : int }

let const_vec k =
  let buf = new_ba 1 in
  A1.set buf 0 k;
  { buf; at = 0; step = 0 }

(* One expression node over a chunk: [dst <- x op y], [dst <- -x],
   [dst <- x]. *)
type instr =
  | Vv of Ir.binop * vec * vec * vec
  | Neg of vec * vec
  | Copy of vec * vec

(* One loop per instruction form, each in a small function of its own
   so that its locals stay in machine registers; indices advance by
   their strides. *)
let vv op n d x y =
  let db = d.buf and xb = x.buf and yb = y.buf in
  let ds = d.step and xs = x.step and ys = y.step in
  let di = ref d.at and xi = ref x.at and yi = ref y.at in
  match op with
  | Ir.Add ->
    for _ = 1 to n do
      A1.unsafe_set db !di (A1.unsafe_get xb !xi +. A1.unsafe_get yb !yi);
      di := !di + ds;
      xi := !xi + xs;
      yi := !yi + ys
    done
  | Ir.Sub ->
    for _ = 1 to n do
      A1.unsafe_set db !di (A1.unsafe_get xb !xi -. A1.unsafe_get yb !yi);
      di := !di + ds;
      xi := !xi + xs;
      yi := !yi + ys
    done
  | Ir.Mul ->
    for _ = 1 to n do
      A1.unsafe_set db !di (A1.unsafe_get xb !xi *. A1.unsafe_get yb !yi);
      di := !di + ds;
      xi := !xi + xs;
      yi := !yi + ys
    done
  | Ir.Div ->
    for _ = 1 to n do
      A1.unsafe_set db !di (A1.unsafe_get xb !xi /. A1.unsafe_get yb !yi);
      di := !di + ds;
      xi := !xi + xs;
      yi := !yi + ys
    done

let neg n d x =
  let db = d.buf and xb = x.buf and ds = d.step and xs = x.step in
  let di = ref d.at and xi = ref x.at in
  for _ = 1 to n do
    A1.unsafe_set db !di (-.A1.unsafe_get xb !xi);
    di := !di + ds;
    xi := !xi + xs
  done

let copy n d x =
  let db = d.buf and xb = x.buf and ds = d.step and xs = x.step in
  let di = ref d.at and xi = ref x.at in
  for _ = 1 to n do
    A1.unsafe_set db !di (A1.unsafe_get xb !xi);
    di := !di + ds;
    xi := !xi + xs
  done

let exec_instr n = function
  | Vv (op, d, x, y) -> vv op n d x y
  | Neg (d, x) -> neg n d x
  | Copy (d, x) -> copy n d x

(* An array reference lowered against the nest's loop levels: its flat
   address is [m_base + sum_l m_coeff.(l) * v_l], and [m_vec.step] is
   the innermost coefficient. *)
type mref = {
  m_vec : vec;
  m_coeff : int array;
  m_base : int;
  mutable m_row : int;  (* flat address at inner index 0 on this row *)
}

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
  s_refs : mref array;  (* every reference, lhs included *)
  s_code : instr array;  (* operands first; the last writes the lhs *)
  s_bounds : bound array;
  mutable s_lo : int;  (* the statement's inner interval on this row *)
  mutable s_hi : int;
}

type cnest = { n_stmts : cstmt array; n_chunk : int }

type code = { c_nests : cnest array; c_vals : int array }

(* ------------------------------------------------------------------ *)
(* Lowering                                                            *)

let var_index vars x =
  let rec find i =
    if i >= Array.length vars then
      invalid_arg ("Native: unbound variable " ^ x)
    else if String.equal vars.(i) x then i
    else find (i + 1)
  in
  find 0

let find_buf bufs name =
  match Hashtbl.find_opt bufs.b_tbl name with
  | Some b -> b
  | None -> invalid_arg ("Native: unknown array " ^ name)

(* Per-dimension subscripts of [r] as coefficient rows over [vars],
   and its row-major flat form. *)
let subscripts extents_of vars (r : Ir.aref) =
  let ext = extents_of r.Ir.array in
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

let apply op x y =
  match op with
  | Ir.Add -> x +. y
  | Ir.Sub -> x -. y
  | Ir.Mul -> x *. y
  | Ir.Div -> x /. y

let rec const_value = function
  | Ir.Const k -> Some k
  | Ir.Read _ -> None
  | Ir.Neg e -> Option.map Float.neg (const_value e)
  | Ir.Bin (op, x, y) -> (
    match (const_value x, const_value y) with
    | Some a, Some b -> Some (apply op a b)
    | _ -> None)

(* Lower one statement; [reg t] is the worker's register t. *)
let lower_stmt bufs extents_of vars ~reg (s : Ir.stmt) =
  let depth = Array.length vars in
  let refs = ref [] and bounds = ref [] and code = ref [] in
  let mem (r : Ir.aref) =
    let b, coeff, base = subscripts extents_of vars r in
    let buf = find_buf bufs r.Ir.array in
    let v = { buf; at = 0; step = coeff.(depth - 1) } in
    refs := { m_vec = v; m_coeff = coeff; m_base = base; m_row = 0 } :: !refs;
    bounds := Array.to_list b @ !bounds;
    v
  in
  let emit i = code := i :: !code in
  (* [e]'s value as an operand; registers from [t] on are free.
     Returns the operand and the first register still free. *)
  let rec operand t e =
    match (const_value e, e) with
    | Some k, _ -> (const_vec k, t)
    | None, Ir.Read r -> (mem r, t)
    | None, _ ->
      let v = reg t in
      into (t + 1) v e;
      (v, t + 1)
  (* Emit the code that leaves [e]'s value in [dst]. *)
  and into t dst e =
    match (const_value e, e) with
    | None, Ir.Neg x -> emit (Neg (dst, fst (operand t x)))
    | None, Ir.Bin (op, x, y) ->
      let vx, t = operand t x in
      let vy, _ = operand t y in
      emit (Vv (op, dst, vx, vy))
    | _ -> emit (Copy (dst, fst (operand t e)))
  in
  into 0 (mem s.Ir.lhs) s.Ir.rhs;
  let glo = Array.make depth min_int and ghi = Array.make depth max_int in
  List.iter
    (fun (v, lo, hi) ->
      let l = var_index vars v in
      glo.(l) <- max glo.(l) lo;
      ghi.(l) <- min ghi.(l) hi)
    s.Ir.guard;
  {
    s_glo = glo;
    s_ghi = ghi;
    s_refs = Array.of_list !refs;
    s_code = Array.of_list (List.rev !code);
    s_bounds = Array.of_list !bounds;
    s_lo = 0;
    s_hi = -1;
  }

(* A chunk runs its instances statement-major (statement, then point)
   where point order is point-major, and within a statement the
   operand loops run before the loop that writes the lhs.  So it can
   only reorder two instances at different inner points of one row.
   When Dep finds no dependence with a nonzero inner distance, no such
   pair touches one element, and every element still sees its reads
   and writes in point order; otherwise a chunk of one point is point
   order itself. *)
let chunk_length (n : Ir.nest) ~inner =
  if Dep.may_carry_dim n ~dim:inner then 1 else max_chunk

(* Lower every nest of [p] against [bufs], with a fresh register file:
   one copy per worker, since chunk views and row state are mutable. *)
let lower bufs (p : Ir.program) =
  let ext_tbl = Hashtbl.create 16 in
  List.iter
    (fun (d : Ir.decl) ->
      (* the loops index the buffers unchecked *)
      if A1.dim (find_buf bufs d.Ir.aname) <> Ir.num_elements d then
        invalid_arg ("Native: buffer size mismatch on " ^ d.Ir.aname);
      Hashtbl.replace ext_tbl d.Ir.aname (Array.of_list d.Ir.extents))
    p.Ir.decls;
  let extents_of a =
    match Hashtbl.find_opt ext_tbl a with
    | Some e -> e
    | None -> invalid_arg ("Native: unknown array " ^ a)
  in
  let regs = ref [||] in
  let reg t =
    while Array.length !regs <= t do
      regs :=
        Array.append !regs [| { buf = new_ba max_chunk; at = 0; step = 1 } |]
    done;
    !regs.(t)
  in
  let depth = ref 1 in
  let nests =
    List.map
      (fun (n : Ir.nest) ->
        let vars = Array.of_list (Ir.nest_vars n) in
        if vars = [||] then
          invalid_arg ("Native: nest " ^ n.Ir.nid ^ " has no loop levels");
        depth := max !depth (Array.length vars);
        let stmts = List.map (lower_stmt bufs extents_of vars ~reg) n.Ir.body in
        {
          n_stmts = Array.of_list stmts;
          n_chunk = chunk_length n ~inner:(Array.length vars - 1);
        })
      p.Ir.nests
  in
  { c_nests = Array.of_list nests; c_vals = Array.make !depth 0 }

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
    code.c_nests.(b.Schedule.nest).n_stmts

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)

(* One row of a box: the outer levels are fixed in [vals], the inner
   one runs over [lo, hi] chunk by chunk. *)
let exec_row cn (vals : int array) inner lo hi =
  let stmts = cn.n_stmts in
  for si = 0 to Array.length stmts - 1 do
    let s = stmts.(si) in
    let live = ref true in
    for l = 0 to inner - 1 do
      if vals.(l) < s.s_glo.(l) || vals.(l) > s.s_ghi.(l) then live := false
    done;
    s.s_lo <- Int.max lo s.s_glo.(inner);
    s.s_hi <- (if !live then Int.min hi s.s_ghi.(inner) else s.s_lo - 1);
    for ri = 0 to Array.length s.s_refs - 1 do
      let r = s.s_refs.(ri) in
      let row = ref r.m_base in
      for l = 0 to inner - 1 do
        row := !row + (r.m_coeff.(l) * vals.(l))
      done;
      r.m_row <- !row
    done
  done;
  let j = ref lo in
  while !j <= hi do
    let j1 = Int.min hi (!j + cn.n_chunk - 1) in
    for si = 0 to Array.length stmts - 1 do
      let s = stmts.(si) in
      let a = Int.max !j s.s_lo and z = Int.min j1 s.s_hi in
      if a <= z then begin
        for ri = 0 to Array.length s.s_refs - 1 do
          let r = s.s_refs.(ri) in
          r.m_vec.at <- r.m_row + (r.m_vec.step * a)
        done;
        for ii = 0 to Array.length s.s_code - 1 do
          exec_instr (z - a + 1) s.s_code.(ii)
        done
      end
    done;
    j := j1 + 1
  done

(* Same box walk as Schedule.exec_box over the outer levels. *)
let exec_box code (b : Schedule.box) =
  let cn = code.c_nests.(b.Schedule.nest) in
  let vals = code.c_vals in
  let inner = Array.length b.Schedule.ranges - 1 in
  let lo, hi = b.Schedule.ranges.(inner) in
  let rec go d =
    if d = inner then exec_row cn vals inner lo hi
    else begin
      let l, h = b.Schedule.ranges.(d) in
      for v = l to h do
        vals.(d) <- v;
        go (d + 1)
      done
    end
  in
  go 0

let run_into ?(steps = 1) ?pool bufs (t : Schedule.t) =
  let phases = Array.of_list t.Schedule.phases in
  let nprocs = t.Schedule.nprocs in
  (* workers share the buffers but never chunk views or registers *)
  let code = Array.init nprocs (fun _ -> lower bufs t.Schedule.prog) in
  Array.iter
    (fun ph -> Array.iter (List.iter (check_box code.(0))) ph)
    phases;
  let exec pool =
    if Pool.size pool <> nprocs then
      invalid_arg
        (Printf.sprintf "Native.run: pool has %d workers, schedule wants %d"
           (Pool.size pool) nprocs);
    let bar = Spin_barrier.create nprocs in
    Pool.run pool (fun w ->
        let mine = code.(w) in
        for _step = 1 to steps do
          for pi = 0 to Array.length phases - 1 do
            List.iter (exec_box mine) phases.(pi).(w);
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
