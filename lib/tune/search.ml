(* Deterministic search drivers (see search.mli). *)

type driver =
  | Exhaustive
  | Tuned of { margin : float; keep : int }
  | Greedy of { budget : int }
  | Beam of { width : int; budget : int }

let default_driver = Tuned { margin = 4.0; keep = 12 }

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: tl -> x :: take (n - 1) tl

let prune ~margin ~keep items =
  match items with
  | [] -> []
  | _ ->
    let best =
      List.fold_left (fun acc (_, v) -> Float.min acc v) infinity items
    in
    let top =
      take keep
        (List.stable_sort (fun (_, a) (_, b) -> Float.compare a b) items)
    in
    List.filter
      (fun ((_, v) as it) -> v <= margin *. best || List.memq it top)
      items

type objective = Cycles | Wallclock

type outcome = {
  best : Space.candidate;
  best_cost : Cost.exact;
  default : Space.candidate;
  default_cost : Cost.exact;
  default_is_paper : bool;
  objective : objective;
  space_size : int;
  considered : int;
  exact_evals : int;
}

let run ?depth ?steps ?cache ?opts ?calibration ?(driver = default_driver)
    ?(objective = Cycles) ?policy ?sweep ~machine ~nprocs p =
  let cache = match cache with Some c -> c | None -> Cost.create_cache () in
  (* Wallclock: one pool for the whole search, so domain spawn/join
     happens once, not once per candidate (and never inside a timed
     region).  The in-memory measurement memo lives and dies with this
     call — measured time is never written to the store. *)
  let mcache = Cost.create_mcache () in
  let pool =
    match objective with
    | Cycles -> None
    | Wallclock -> Some (Lf_parallel.Pool.create nprocs)
  in
  let finally () = Option.iter Lf_parallel.Pool.shutdown pool in
  Fun.protect ~finally @@ fun () ->
  let evals = ref 0 in
  let ex c =
    incr evals;
    match objective with
    | Cycles -> Cost.exact ?depth ?steps ~cache ?opts ~machine ~nprocs p c
    | Wallclock -> (
      match
        Cost.measured ?depth ?steps ?policy ~cache:mcache ?pool ~machine
          ~nprocs p c
      with
      | Error _ as e -> e
      | Ok m ->
        (* seconds ride in [e_cycles]; the outcome's [objective] field
           tells consumers which unit they are looking at *)
        Ok { Cost.e_cycles = m.Cost.m_min_s; e_misses = 0; e_barrier = 0.0 })
  in
  let cands = Space.enumerate ?sweep ~machine p in
  let space_size = List.length cands in
  (* Reference configuration: the paper default, falling back to the
     unfused schedule when fusion is infeasible for this program. *)
  let paper = Space.paper_default ~machine p in
  let fallback =
    {
      Space.variant = Space.Unfused;
      layout = Space.Partitioned { assoc_aware = true };
    }
  in
  let reference =
    match ex paper with
    | Ok e -> Ok (paper, e, true)
    | Error _ -> (
      match ex fallback with
      | Ok e -> Ok (fallback, e, false)
      | Error m -> Error ("no feasible reference configuration: " ^ m))
  in
  match reference with
  | Error _ as e -> e
  | Ok (default, default_cost, default_is_paper) ->
    (* Best of a candidate list, seeded with the reference; earlier
       candidates win ties, so the reference survives unless strictly
       beaten. *)
    let pick ~seed candidates =
      List.fold_left
        (fun (bc, be) c ->
          match ex c with
          | Error _ -> (bc, be)
          | Ok e ->
            if e.Cost.e_cycles < be.Cost.e_cycles then (c, e) else (bc, be))
        seed candidates
    in
    let analytic_scored () =
      List.filter_map
        (fun c ->
          match Cost.analytic ?depth ?calibration ~machine ~nprocs p c with
          | Error _ -> None
          | Ok v -> Some (c, v))
        cands
    in
    let to_consider =
      match driver with
      | Exhaustive -> cands
      | Tuned { margin; keep } ->
        List.map fst (prune ~margin ~keep (analytic_scored ()))
      | Beam { width; budget } ->
        let scored =
          List.stable_sort
            (fun (_, a) (_, b) -> Float.compare a b)
            (analytic_scored ())
        in
        List.map fst (take (min width budget) scored)
      | Greedy _ -> []
    in
    let best, best_cost =
      match driver with
      | Greedy { budget } ->
        (* coordinate descent: best single-axis move until a fixpoint *)
        let same_axis (c : Space.candidate) (c' : Space.candidate) =
          c' <> c
          && (c'.Space.variant = c.Space.variant
             || c'.Space.layout = c.Space.layout)
        in
        let rec descend (cur, cur_cost) budget =
          if budget <= 0 then (cur, cur_cost)
          else
            let neighbors = take budget (List.filter (same_axis cur) cands) in
            let next, next_cost = pick ~seed:(cur, cur_cost) neighbors in
            if next_cost.Cost.e_cycles < cur_cost.Cost.e_cycles then
              descend (next, next_cost) (budget - List.length neighbors)
            else (cur, cur_cost)
        in
        descend (default, default_cost) budget
      | _ -> pick ~seed:(default, default_cost) to_consider
    in
    Ok
      {
        best;
        best_cost;
        default;
        default_cost;
        default_is_paper;
        objective;
        space_size;
        considered =
          (match driver with
          | Greedy _ -> !evals
          | _ -> List.length to_consider);
        exact_evals = !evals;
      }
