(** Reference serial interpreter: the semantic ground truth every
    transformed schedule is verified against (bit-exact — element
    values are computed by the same statement instances in both). *)

type store = {
  arrays : (string, float array) Hashtbl.t;
  extents : (string, int array) Hashtbl.t;
}

val default_init : string -> int -> float
(** Deterministic pseudo-random initial value for array [name] at flat
    index [k].  A double-underscore suffix (["za__copy"],
    ["zb__rep0_n2"]) marks an alias array introduced by a
    transformation: it receives the base array's values, so boundary
    reads of never-written elements agree with the original program. *)

val create : ?init:(string -> int -> float) -> Ir.program -> store
(** Allocate and initialise all declared arrays. *)

val find_array : store -> string -> float array
val find_extents : store -> string -> int array

exception Out_of_bounds of string

val out_of_bounds : array:string -> dim:int -> index:int -> extent:int -> exn
(** The {!Out_of_bounds} every backend raises, with one message format:
    ["<array> dim <d> index <i> not in [0,<extent>)"].  Callers write
    [raise (out_of_bounds ...)], so the compiler sees the branch end. *)

val eval_expr : store -> (Ir.var -> int) -> Ir.expr -> float
val exec_stmt : store -> (Ir.var -> int) -> Ir.stmt -> unit
val exec_iteration : store -> Ir.nest -> (Ir.var -> int) -> unit

val run_nest : store -> Ir.nest -> unit
(** Execute one nest serially, loops in declaration order. *)

val run : ?init:(string -> int -> float) -> ?steps:int -> Ir.program -> store
(** Execute the whole sequence serially, [steps] times (a sequential
    time-step loop); the reference semantics. *)

val diff : store -> store -> (string * int * float * float) option
(** First bit-level mismatch [(array, flat index, expected, got)]. *)

val equal : store -> store -> bool

val checksum : store -> float
(** Order-stable sum over all arrays, for keeping benchmark results
    observable. *)
