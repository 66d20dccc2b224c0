(* Print a fixed corpus of programs with [Ir.program_to_string]:

   - every kernel of lib/kernels (ll18, calc, filter, jacobi and the
     sequences and remainders of tomcatv, hydro2d and spem) at a small
     size and at the paper's size;
   - every .loop file in the directories named on the command line;
   - programs from a fixed-seed generator that reaches the printer's
     corner cases: NaN, infinities, -0.0 and long or tiny constants,
     affine coefficients 0, ±1, ±2 and ±3 built as raw records (so
     [+0*i] and a leading [-i] appear), guards, negation, and all four
     operators at every nesting depth.

   `dune runtest` diffs the output against golden/ir_print.expected.
   The printed text names every stored result (Sim.canonical includes
   it), so a byte that moves here is a change of [Ir.version].  Each
   program is also printed through [Ir.pp_program], which must agree. *)

module Ir = Lf_ir.Ir
module K = Lf_kernels

let emit label p =
  let s = Ir.program_to_string p in
  if Format.asprintf "%a" Ir.pp_program p <> s then begin
    Printf.eprintf "ir_print: %s: pp_program differs from program_to_string\n"
      label;
    exit 1
  end;
  Printf.printf "=== %s\n%s" label s

let app label (a : K.Apps.t) =
  List.iteri
    (fun i p -> emit (Printf.sprintf "%s seq%d" label i) p)
    a.K.Apps.sequences;
  Option.iter (emit (label ^ " remainder")) a.K.Apps.remainder

let kernels () =
  emit "ll18 n=20" (K.Ll18.program ~n:20 ());
  emit "ll18 paper" (K.Ll18.program ());
  emit "calc n=20" (K.Calc.program ~n:20 ());
  emit "calc paper" (K.Calc.program ());
  emit "filter 24x20" (K.Filter.program ~rows:24 ~cols:20 ());
  emit "filter paper" (K.Filter.program ());
  emit "jacobi n=20" (K.Jacobi.program ~n:20 ());
  emit "jacobi paper" (K.Jacobi.program ());
  app "tomcatv n=33" (K.Apps.tomcatv ~n:33 ());
  app "tomcatv paper" (K.Apps.tomcatv ());
  app "hydro2d 40x24" (K.Apps.hydro2d ~rows:40 ~cols:24 ());
  app "hydro2d paper" (K.Apps.hydro2d ());
  app "spem 12x13x13" (K.Apps.spem ~d0:12 ~d1:13 ~d2:13 ());
  app "spem paper" (K.Apps.spem ())

let loop_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".loop")
  |> List.sort String.compare
  |> List.iter (fun f ->
         let path = Filename.concat dir f in
         emit path (Lf_front.Parse.program_of_file path))

(* ------------------------------------------------------------------ *)
(* Generated programs                                                  *)

let constants =
  [| nan; infinity; neg_infinity; -0.0; 0.0; 1e-9; 0.1; 123456789.123;
     1.0; 2.5; -3.0; 1e300 |]

let coefficients = [| 0; 1; -1; 2; -2; 3; -3 |]
let operators = [| Ir.Add; Ir.Sub; Ir.Mul; Ir.Div |]
let var_names = [| "i"; "j"; "k" |]
let array_names = [| "a"; "b"; "c"; "d" |]

let generate st idx =
  let int lo hi = lo + Random.State.int st (hi - lo + 1) in
  let pick a = a.(Random.State.int st (Array.length a)) in
  let depth = int 1 3 in
  let vars = Array.sub var_names 0 depth in
  (* a raw record, not [Ir.affine]: zero coefficients, repeated and
     unsorted variables all reach the printer *)
  let affine () =
    let terms =
      List.init (int 0 3) (fun _ -> (pick coefficients, pick vars))
    in
    { Ir.terms; const = int (-4) 4 }
  in
  let aref () =
    Ir.aref (pick array_names) (List.init (int 1 3) (fun _ -> affine ()))
  in
  let rec expr d =
    match if d = 0 then int 0 1 else int 0 3 with
    | 0 -> Ir.Const (pick constants)
    | 1 -> Ir.Read (aref ())
    | 2 -> Ir.Neg (expr (d - 1))
    | _ -> Ir.Bin (pick operators, expr (d - 1), expr (d - 1))
  in
  let guard () =
    List.init (int 0 2) (fun _ ->
        let lo = int (-3) 5 in
        (pick vars, lo, lo + int 0 9))
  in
  let stmt () = Ir.stmt ~guard:(guard ()) (aref ()) (expr (int 0 4)) in
  let nest n =
    {
      Ir.nid = Printf.sprintf "N%d" n;
      levels =
        Array.to_list
          (Array.map
             (fun v ->
               let lo = int (-2) 3 in
               { Ir.lvar = v; lo; hi = lo + int 0 40; parallel = int 0 1 = 0 })
             vars);
      body = List.init (int 1 3) (fun _ -> stmt ());
    }
  in
  {
    Ir.pname = Printf.sprintf "gen%03d" idx;
    decls =
      List.map
        (fun a -> { Ir.aname = a; extents = List.init (int 1 3) (fun _ -> int 1 600) })
        (Array.to_list array_names);
    nests = List.init (int 1 3) nest;
  }

let generated count =
  let st = Random.State.make [| 1995 |] in
  for idx = 0 to count - 1 do
    emit (Printf.sprintf "generated %d" idx) (generate st idx)
  done

let () =
  kernels ();
  List.iter loop_files (List.tl (Array.to_list Sys.argv));
  generated 200
