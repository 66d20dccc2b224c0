(** Affine loop-nest intermediate representation.

    Programs are sequences of perfectly nested loops over
    multi-dimensional arrays (the paper's Figure 2 model): the outermost
    [k] levels of each nest may be parallel (doall), and fusion is
    considered for those levels.  Subscripts are affine in the loop
    index variables. *)

type var = string
(** Loop index variable name. *)

type affine = { terms : (int * var) list; const : int }
(** Affine expression [sum c_i * v_i + const]. *)

val affine : ?const:int -> (int * var) list -> affine
(** Build an affine expression; zero-coefficient terms are dropped. *)

val av : ?c:int -> var -> affine
(** [av ~c x] is the subscript [x + c]. *)

val ac : int -> affine
(** Constant subscript. *)

val affine_add : affine -> affine -> affine
val affine_shift : affine -> int -> affine

val affine_eval : affine -> (var -> int) -> int

val affine_vars : affine -> var list

val unit_var : affine -> (var * int) option
(** [Some (x, c)] when the expression is exactly [x + c] — the form the
    exact uniform-distance test requires. *)

val affine_is_const : affine -> bool
val affine_equal : affine -> affine -> bool

type aref = { array : string; index : affine list }
(** Array reference: one affine subscript per array dimension
    (row-major storage). *)

val aref : string -> affine list -> aref

type binop = Add | Sub | Mul | Div

type expr =
  | Const of float
  | Read of aref
  | Neg of expr
  | Bin of binop * expr * expr

type guard = (var * int * int) list
(** Conjunction of inclusive range constraints on loop variables.
    Guards arise from the direct fusion method (Figure 11(a)) and from
    replicated statements in the alignment+replication baseline. *)

type stmt = { lhs : aref; rhs : expr; guard : guard }

val stmt : ?guard:guard -> aref -> expr -> stmt

val guard_holds : guard -> (var -> int) -> bool

type level = { lvar : var; lo : int; hi : int; parallel : bool }
(** One loop level with inclusive bounds; [parallel] marks a doall. *)

type nest = { nid : string; levels : level list; body : stmt list }
(** A perfect loop nest. *)

type decl = { aname : string; extents : int list }

type program = { pname : string; decls : decl list; nests : nest list }
(** A parallel loop sequence: the unit the transformation operates on. *)

(** Expression-building helpers. *)
module Dsl : sig
  val ( %. ) : string -> affine list -> expr
  val f : float -> expr
  val ( +: ) : expr -> expr -> expr
  val ( -: ) : expr -> expr -> expr
  val ( *: ) : expr -> expr -> expr
  val ( /: ) : expr -> expr -> expr
  val neg : expr -> expr
  val ( <-: ) : string * affine list -> expr -> stmt
  val at : string -> affine list -> string * affine list
  val i0 : var -> affine
  val i : var -> int -> affine
end

val expr_reads : expr -> aref list
val stmt_reads : stmt -> aref list
val stmt_writes : stmt -> aref list
val nest_reads : nest -> aref list
val nest_writes : nest -> aref list
val nest_refs : nest -> aref list
val nest_vars : nest -> var list
val nest_arrays : nest -> string list
val program_arrays : program -> string list

val rename_affine : (var -> var) -> affine -> affine
val rename_aref : (var -> var) -> aref -> aref
val rename_expr : (var -> var) -> expr -> expr

val rename_stmt : (var -> var) -> stmt -> stmt
(** Apply a simultaneous loop-variable renaming to a statement
    (subscripts and guard); the mapping is applied in one pass, so
    variable swaps are safe. *)

val find_decl : program -> string -> decl
val find_nest : program -> string -> nest
val num_elements : decl -> int
val nest_iterations : nest -> int

exception Invalid of string

val validate : program -> unit
(** Check structural well-formedness (declared arrays, matching ranks,
    bound variables, non-empty ranges); raises {!Invalid}. *)

val pp_affine : Format.formatter -> affine -> unit
val pp_aref : Format.formatter -> aref -> unit
val pp_expr : Format.formatter -> expr -> unit
val pp_stmt : Format.formatter -> stmt -> unit
val pp_program : Format.formatter -> program -> unit
val program_to_string : program -> string
(** The canonical program text, which {!Lf_front.Parse.program} reads
    back.  The [pp_*] printers above write the same bytes; any change
    to them is a change of {!version}. *)

val version : string
(** Fingerprint of this module's observable behaviour (program
    semantics + canonical printer), folded into
    {!Lf_machine.Sim.digest}.  Bump on any change that can alter a
    simulated observable; must contain no spaces. *)
