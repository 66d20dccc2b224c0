(* Reference serial interpreter for the IR.

   This is the semantic ground truth: every transformed schedule must
   produce bit-identical array contents (each element is computed by the
   same statement instance reading the same values, so no floating-point
   reassociation is involved). *)

type store = {
  arrays : (string, float array) Hashtbl.t;
  extents : (string, int array) Hashtbl.t;
}

(* Deterministic pseudo-random initial value for array [name] at flat
   index [k]; keeps runs reproducible without external inputs.  A
   double-underscore suffix ("za__copy", "zb__rep0") marks an alias
   array introduced by a transformation: it receives the base array's
   values so that boundary reads of never-written elements agree with
   the original program. *)
let default_init name k =
  let base =
    match
      let rec find i =
        if i + 1 >= String.length name then None
        else if name.[i] = '_' && name.[i + 1] = '_' then Some i
        else find (i + 1)
      in
      find 0
    with
    | Some i -> String.sub name 0 i
    | None -> name
  in
  let h = Hashtbl.hash (base, k) land 0xFFFFF in
  1.0 +. (float_of_int h /. 1048576.0)

let create ?(init = default_init) (p : Ir.program) =
  let arrays = Hashtbl.create 16 and extents = Hashtbl.create 16 in
  List.iter
    (fun (d : Ir.decl) ->
      let n = Ir.num_elements d in
      let a = Array.init n (init d.aname) in
      Hashtbl.replace arrays d.aname a;
      Hashtbl.replace extents d.aname (Array.of_list d.extents))
    p.decls;
  { arrays; extents }

let find_array st name =
  match Hashtbl.find_opt st.arrays name with
  | Some a -> a
  | None -> invalid_arg ("Interp.find_array: unknown array " ^ name)

let find_extents st name =
  match Hashtbl.find_opt st.extents name with
  | Some e -> e
  | None -> invalid_arg ("Interp.find_extents: unknown array " ^ name)

exception Out_of_bounds of string

let out_of_bounds ~array ~dim ~index ~extent =
  Out_of_bounds
    (Printf.sprintf "%s dim %d index %d not in [0,%d)" array dim index extent)

(* Row-major flat index with bounds checking. *)
let flat_index st (r : Ir.aref) idx =
  let ext = find_extents st r.array in
  let n = Array.length ext in
  let k = ref 0 in
  List.iteri
    (fun d v ->
      if d >= n then raise (Out_of_bounds r.array);
      if v < 0 || v >= ext.(d) then
        raise (out_of_bounds ~array:r.array ~dim:d ~index:v ~extent:ext.(d));
      k := (!k * ext.(d)) + v)
    idx;
  !k

let eval_ref st env (r : Ir.aref) =
  let idx = List.map (fun a -> Ir.affine_eval a env) r.index in
  (find_array st r.array, flat_index st r idx)

let rec eval_expr st env (e : Ir.expr) =
  match e with
  | Const k -> k
  | Read r ->
    let a, k = eval_ref st env r in
    a.(k)
  | Neg e -> -.eval_expr st env e
  | Bin (op, x, y) -> (
    let a = eval_expr st env x and b = eval_expr st env y in
    match op with
    | Add -> a +. b
    | Sub -> a -. b
    | Mul -> a *. b
    | Div -> a /. b)

let exec_stmt st env (s : Ir.stmt) =
  if Ir.guard_holds s.guard env then begin
    let v = eval_expr st env s.rhs in
    let a, k = eval_ref st env s.lhs in
    a.(k) <- v
  end

(* Execute one full iteration (all statements) of [nest] at the point
   given by [env]. *)
let exec_iteration st (nest : Ir.nest) env =
  List.iter (exec_stmt st env) nest.body

let run_nest st (n : Ir.nest) =
  let vars = Array.of_list (Ir.nest_vars n) in
  let vals = Array.make (Array.length vars) 0 in
  let env x =
    let rec find i =
      if i >= Array.length vars then
        invalid_arg ("Interp.run_nest: unbound variable " ^ x)
      else if String.equal vars.(i) x then vals.(i)
      else find (i + 1)
    in
    find 0
  in
  let levels = Array.of_list n.levels in
  let rec go d =
    if d = Array.length levels then List.iter (exec_stmt st env) n.body
    else
      let l = levels.(d) in
      for v = l.lo to l.hi do
        vals.(d) <- v;
        go (d + 1)
      done
  in
  go 0

let run ?init ?(steps = 1) (p : Ir.program) =
  let st = create ?init p in
  for _step = 1 to steps do
    List.iter (run_nest st) p.nests
  done;
  st

(* Bit-exact store comparison; returns the first mismatch if any. *)
let diff a b =
  let mismatch = ref None in
  Hashtbl.iter
    (fun name arr ->
      if !mismatch = None then
        match Hashtbl.find_opt b.arrays name with
        | None -> mismatch := Some (name, -1, nan, nan)
        | Some arr' ->
          if Array.length arr <> Array.length arr' then
            mismatch := Some (name, -1, nan, nan)
          else
            let n = Array.length arr in
            let k = ref 0 in
            while !mismatch = None && !k < n do
              if not (Float.equal arr.(!k) arr'.(!k)) then
                mismatch := Some (name, !k, arr.(!k), arr'.(!k));
              incr k
            done)
    a.arrays;
  !mismatch

let equal a b = diff a b = None

(* Simple checksum used by benches to keep results observable. *)
let checksum st =
  let acc = ref 0.0 in
  let names =
    Hashtbl.fold (fun k _ l -> k :: l) st.arrays []
    |> List.sort String.compare
  in
  List.iter
    (fun name ->
      let a = find_array st name in
      Array.iter (fun v -> acc := !acc +. v) a)
    names;
  !acc
