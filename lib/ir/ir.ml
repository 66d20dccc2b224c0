(* Affine loop-nest intermediate representation.

   Programs are sequences of perfectly nested loops ("nests") over
   multi-dimensional arrays, the model of Figure 2 of the paper: the
   outer [k] loops of each nest may be parallel (doall) and fusion is
   considered for those outer dimensions.  Subscripts are affine in the
   loop index variables; the dependence machinery (lf_dep) computes
   exact uniform distances for the common [i + c] form. *)

type var = string

type affine = { terms : (int * var) list; const : int }

let affine ?(const = 0) terms =
  let keep (c, _) = c <> 0 in
  { terms = List.filter keep terms; const }

let av ?(c = 0) x = affine ~const:c [ (1, x) ]
let ac k = affine ~const:k []

let affine_add a b =
  let rec merge acc = function
    | [] -> List.rev acc
    | (c, x) :: rest ->
      let same (_, y) = String.equal x y in
      let c' = c + List.fold_left (fun s (d, _) -> s + d) 0 (List.filter same rest) in
      let rest = List.filter (fun t -> not (same t)) rest in
      if c' = 0 then merge acc rest else merge ((c', x) :: acc) rest
  in
  { terms = merge [] (a.terms @ b.terms); const = a.const + b.const }

let affine_shift a k = { a with const = a.const + k }

let affine_eval a env =
  List.fold_left (fun s (c, x) -> s + (c * env x)) a.const a.terms

let affine_vars a = List.map snd a.terms

(* [unit_var a] is [Some (x, c)] when [a] is exactly [x + c]. *)
let unit_var a =
  match a.terms with [ (1, x) ] -> Some (x, a.const) | _ -> None

let affine_is_const a = a.terms = []

let affine_equal a b =
  let norm a = List.sort compare a.terms in
  a.const = b.const && norm a = norm b

type aref = { array : string; index : affine list }

let aref array index = { array; index }

type binop = Add | Sub | Mul | Div

type expr =
  | Const of float
  | Read of aref
  | Neg of expr
  | Bin of binop * expr * expr

(* A statement optionally carries a guard: a conjunction of inclusive
   range constraints on loop variables.  Guards arise from the direct
   fusion method (Figure 11(a)) and from replicated statements in the
   alignment+replication baseline, which must only execute where their
   source statement's iteration space did. *)
type guard = (var * int * int) list

type stmt = { lhs : aref; rhs : expr; guard : guard }

let stmt ?(guard = []) lhs rhs = { lhs; rhs; guard }

let guard_holds g env =
  List.for_all
    (fun (v, lo, hi) ->
      let x = env v in
      x >= lo && x <= hi)
    g

type level = { lvar : var; lo : int; hi : int; parallel : bool }

type nest = { nid : string; levels : level list; body : stmt list }

type decl = { aname : string; extents : int list }

type program = { pname : string; decls : decl list; nests : nest list }

(* ------------------------------------------------------------------ *)
(* Expression DSL                                                      *)

module Dsl = struct
  let ( %. ) array index = Read (aref array index)
  let f k = Const k
  let ( +: ) a b = Bin (Add, a, b)
  let ( -: ) a b = Bin (Sub, a, b)
  let ( *: ) a b = Bin (Mul, a, b)
  let ( /: ) a b = Bin (Div, a, b)
  let neg a = Neg a
  let ( <-: ) lhs rhs =
    { lhs = { array = fst lhs; index = snd lhs }; rhs; guard = [] }
  let at array index = (array, index)
  let i0 x = av x
  let i x c = av ~c x
end

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)

let rec expr_reads = function
  | Const _ -> []
  | Read r -> [ r ]
  | Neg e -> expr_reads e
  | Bin (_, a, b) -> expr_reads a @ expr_reads b

let stmt_reads s = expr_reads s.rhs
let stmt_writes s = [ s.lhs ]

let nest_reads n = List.concat_map stmt_reads n.body
let nest_writes n = List.concat_map stmt_writes n.body
let nest_refs n = nest_writes n @ nest_reads n

let nest_vars n = List.map (fun l -> l.lvar) n.levels

let nest_arrays n =
  let names = List.map (fun r -> r.array) (nest_refs n) in
  List.sort_uniq String.compare names

let program_arrays p =
  List.sort_uniq String.compare (List.concat_map nest_arrays p.nests)

(* Simultaneous loop-variable renaming, used by transformations that
   merge nests whose levels carry different variable names (lib/script
   fusion renames every member nest onto the first nest's variables).
   The mapping is applied in one pass, so swaps are safe. *)
let rename_affine f a = { a with terms = List.map (fun (c, x) -> (c, f x)) a.terms }
let rename_aref f r = { r with index = List.map (rename_affine f) r.index }

let rec rename_expr f = function
  | Const k -> Const k
  | Read r -> Read (rename_aref f r)
  | Neg e -> Neg (rename_expr f e)
  | Bin (op, a, b) -> Bin (op, rename_expr f a, rename_expr f b)

let rename_stmt f s =
  {
    lhs = rename_aref f s.lhs;
    rhs = rename_expr f s.rhs;
    guard = List.map (fun (v, lo, hi) -> (f v, lo, hi)) s.guard;
  }

let find_decl p name =
  match List.find_opt (fun d -> String.equal d.aname name) p.decls with
  | Some d -> d
  | None -> invalid_arg (Printf.sprintf "Ir.find_decl: unknown array %s" name)

let find_nest p nid =
  match List.find_opt (fun n -> String.equal n.nid nid) p.nests with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "Ir.find_nest: unknown nest %s" nid)

let num_elements d = List.fold_left ( * ) 1 d.extents

(* Number of iterations of a nest (product of level trip counts). *)
let nest_iterations n =
  List.fold_left (fun acc l -> acc * max 0 (l.hi - l.lo + 1)) 1 n.levels

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)

exception Invalid of string

let invalid fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt

let validate_ref p vars r =
  let d = try find_decl p r.array with Invalid_argument m -> invalid "%s" m in
  if List.length r.index <> List.length d.extents then
    invalid "array %s: %d subscripts for %d dimensions" r.array
      (List.length r.index) (List.length d.extents);
  let check_var x =
    if not (List.mem x vars) then
      invalid "array %s: subscript uses unbound variable %s" r.array x
  in
  List.iter (fun a -> List.iter check_var (affine_vars a)) r.index

let validate_nest p n =
  if n.levels = [] then invalid "nest %s: empty loop nest" n.nid;
  if n.body = [] then invalid "nest %s: empty body" n.nid;
  let vars = nest_vars n in
  let sorted = List.sort_uniq String.compare vars in
  if List.length sorted <> List.length vars then
    invalid "nest %s: duplicate loop variables" n.nid;
  List.iter
    (fun l ->
      if l.lo > l.hi then invalid "nest %s: empty range for %s" n.nid l.lvar)
    n.levels;
  List.iter
    (fun s ->
      validate_ref p vars s.lhs;
      List.iter (validate_ref p vars) (stmt_reads s);
      List.iter
        (fun (v, _, _) ->
          if not (List.mem v vars) then
            invalid "nest %s: guard uses unbound variable %s" n.nid v)
        s.guard)
    n.body

let validate p =
  let names = List.map (fun d -> d.aname) p.decls in
  if List.length (List.sort_uniq String.compare names) <> List.length names
  then invalid "duplicate array declarations";
  List.iter
    (fun d ->
      if d.extents = [] || List.exists (fun e -> e <= 0) d.extents then
        invalid "array %s: bad extents" d.aname)
    p.decls;
  let nids = List.map (fun n -> n.nid) p.nests in
  if List.length (List.sort_uniq String.compare nids) <> List.length nids then
    invalid "duplicate nest ids";
  List.iter (validate_nest p) p.nests

(* ------------------------------------------------------------------ *)
(* Canonical printer (C-like)

   One printer appends every construct to a [Buffer.t];
   [program_to_string] and the [pp_*] functions wrap it.  Its bytes are
   the canonical program text: Sim.canonical embeds it in every request
   name and the front end parses it back, so any change to them must
   bump [version] below.  Lists are walked by top-level recursive
   functions, not closures, so a render allocates little beyond the
   buffer. *)

(* [string_of_int]'s digits, appended without formatting a string. *)
let rec add_digits b k =
  if k >= 10 then add_digits b (k / 10);
  Buffer.add_char b (Char.unsafe_chr (48 + (k mod 10)))

let add_int b k =
  if k >= 0 then add_digits b k
  else if k = min_int then Buffer.add_string b (string_of_int k)
  else begin
    Buffer.add_char b '-';
    add_digits b (-k)
  end

(* [c*x] terms: a unit coefficient prints as the bare variable, and
   every non-negative coefficient after the first carries a [+]. *)
let rec add_terms b first = function
  | [] -> ()
  | (c, x) :: rest ->
    if c = 1 then begin
      if not first then Buffer.add_char b '+';
      Buffer.add_string b x
    end
    else if c = -1 then begin
      Buffer.add_char b '-';
      Buffer.add_string b x
    end
    else begin
      if c >= 0 && not first then Buffer.add_char b '+';
      add_int b c;
      Buffer.add_char b '*';
      Buffer.add_string b x
    end;
    add_terms b false rest

let add_affine b a =
  if a.terms = [] then add_int b a.const
  else begin
    add_terms b true a.terms;
    if a.const > 0 then Buffer.add_char b '+';
    if a.const <> 0 then add_int b a.const
  end

let rec add_subscripts b = function
  | [] -> ()
  | a :: rest ->
    Buffer.add_char b '[';
    add_affine b a;
    Buffer.add_char b ']';
    add_subscripts b rest

let add_aref b r =
  Buffer.add_string b r.array;
  add_subscripts b r.index

let binop_char = function Add -> '+' | Sub -> '-' | Mul -> '*' | Div -> '/'

let prec = function Add | Sub -> 1 | Mul | Div -> 2

(* [p] is the loosest operator precedence the context accepts without
   parentheses: 0 at the top, 3 under a negation. *)
let rec add_expr b p = function
  | Const k -> Buffer.add_string b (Printf.sprintf "%g" k)
  | Read r -> add_aref b r
  | Neg e ->
    Buffer.add_char b '-';
    add_expr b 3 e
  | Bin (op, l, r) ->
    let q = prec op in
    if q < p then Buffer.add_char b '(';
    add_expr b q l;
    Buffer.add_char b ' ';
    Buffer.add_char b (binop_char op);
    Buffer.add_char b ' ';
    add_expr b (q + 1) r;
    if q < p then Buffer.add_char b ')'

let rec add_guard b first = function
  | [] -> ()
  | (v, lo, hi) :: rest ->
    if not first then Buffer.add_string b " && ";
    add_int b lo;
    Buffer.add_string b " <= ";
    Buffer.add_string b v;
    Buffer.add_string b " && ";
    Buffer.add_string b v;
    Buffer.add_string b " <= ";
    add_int b hi;
    add_guard b false rest

let add_stmt b s =
  if s.guard <> [] then begin
    Buffer.add_string b "if (";
    add_guard b true s.guard;
    Buffer.add_string b ") "
  end;
  add_aref b s.lhs;
  Buffer.add_string b " = ";
  add_expr b 0 s.rhs;
  Buffer.add_char b ';'

let add_indent b depth =
  for _ = 1 to depth do
    Buffer.add_string b "  "
  done

let rec add_body b depth = function
  | [] -> ()
  | s :: rest ->
    add_indent b depth;
    add_stmt b s;
    Buffer.add_char b '\n';
    add_body b depth rest

(* The loop headers from [depth] inwards, then the body, then the
   closing braces. *)
let rec add_levels b body depth = function
  | [] -> add_body b depth body
  | l :: rest ->
    add_indent b depth;
    Buffer.add_string b (if l.parallel then "doall (" else "for (");
    Buffer.add_string b l.lvar;
    Buffer.add_string b " = ";
    add_int b l.lo;
    Buffer.add_string b "; ";
    Buffer.add_string b l.lvar;
    Buffer.add_string b " <= ";
    add_int b l.hi;
    Buffer.add_string b "; ";
    Buffer.add_string b l.lvar;
    Buffer.add_string b "++) {\n";
    add_levels b body (depth + 1) rest;
    add_indent b depth;
    Buffer.add_string b "}\n"

let add_nest b n =
  Buffer.add_string b "/* nest ";
  Buffer.add_string b n.nid;
  Buffer.add_string b " */\n";
  add_levels b n.body 0 n.levels

let add_decl b d =
  Buffer.add_string b "double ";
  Buffer.add_string b d.aname;
  List.iter
    (fun e ->
      Buffer.add_char b '[';
      add_int b e;
      Buffer.add_char b ']')
    d.extents;
  Buffer.add_string b ";\n"

let add_program b p =
  Buffer.add_string b "/* program ";
  Buffer.add_string b p.pname;
  Buffer.add_string b " */\n";
  List.iter (add_decl b) p.decls;
  Buffer.add_char b '\n';
  List.iter (add_nest b) p.nests

(* 1024 bytes hold a small kernel's text and stay in the minor heap. *)
let to_string add x =
  let b = Buffer.create 1024 in
  add b x;
  Buffer.contents b

let program_to_string = to_string add_program

let pp add ppf x = Format.pp_print_string ppf (to_string add x)
let pp_affine = pp add_affine
let pp_aref = pp add_aref
let pp_expr = pp (fun b e -> add_expr b 0 e)
let pp_stmt = pp add_stmt
let pp_program = pp add_program

(* Observable-behaviour fingerprint of this module: the program
   semantics and the canonical printer above.  Bump on any change that
   alters what a printed program means or how it prints — Sim.digest
   folds this into every cache key, so persisted results computed under
   the old behaviour read as misses.  No spaces (the store's entry
   header is line/space-delimited). *)
let version = "lf-ir-1"
