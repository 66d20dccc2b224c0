module Sim = Lf_machine.Sim
module Exec = Lf_machine.Exec

type store_policy =
  | Store_off
  | Store_in of string option
  | Store_cold of string option

type t = {
  engine : Sim.mode;
  jobs : int option;
  store : store_policy;
  timeout_s : float option;
  sink : Lf_obs.Obs.sink option;
}

let default =
  {
    engine = Sim.Run_compressed;
    jobs = None;
    store = Store_in None;
    timeout_s = None;
    sink = None;
  }

let make ?(engine = default.engine) ?jobs ?(store = default.store) ?timeout_s
    ?sink () =
  { engine; jobs; store; timeout_s; sink }

let with_engine engine t = { t with engine }
let with_jobs jobs t = { t with jobs = Some jobs }
let with_store store t = { t with store }
let with_timeout timeout_s t = { t with timeout_s = Some timeout_s }
let with_sink sink t = { t with sink = Some sink }
let without_store t = { t with store = Store_off }

let cold t =
  match t.store with
  | Store_off -> t
  | Store_in d | Store_cold d -> { t with store = Store_cold d }

let jobs_or_default t =
  match t.jobs with Some j -> max 1 j | None -> Exec.default_jobs ()

let is_cold t = match t.store with Store_cold _ -> true | _ -> false
let store_enabled t = match t.store with Store_off -> false | _ -> true

let store_root t =
  match t.store with Store_off -> None | Store_in d | Store_cold d -> d

let exec ?pool t =
  { Exec.o_jobs = t.jobs; o_pool = pool; o_sink = t.sink }

let of_env ?(base = default) () =
  let ( let* ) = Result.bind in
  let* engine =
    match Sys.getenv_opt "LF_ENGINE" with
    | None | Some "" -> Ok base.engine
    | Some s ->
        Result.map_error
          (fun e -> Printf.sprintf "LF_ENGINE=%s: %s" s e)
          (Sim.mode_of_string s)
  in
  let* timeout_s =
    match Sys.getenv_opt "LF_TIMEOUT_S" with
    | None | Some "" -> Ok base.timeout_s
    | Some s -> (
        match float_of_string_opt s with
        | Some f when f > 0.0 -> Ok (Some f)
        | Some _ | None ->
            Error
              (Printf.sprintf "LF_TIMEOUT_S=%s: expected positive seconds" s))
  in
  let* store =
    match Sys.getenv_opt "LF_STORE" with
    | None | Some "" -> Ok base.store
    | Some "off" -> Ok Store_off
    | Some "on" -> Ok (Store_in None)
    | Some s -> Error (Printf.sprintf "LF_STORE=%s: expected on or off" s)
  in
  let* store =
    match Sys.getenv_opt "LF_COLD" with
    | None | Some "" | Some "0" | Some "false" -> Ok store
    | Some "1" | Some "true" -> (
        match store with
        | Store_off -> Ok Store_off
        | Store_in d | Store_cold d -> Ok (Store_cold d))
    | Some s -> Error (Printf.sprintf "LF_COLD=%s: expected 0 or 1" s)
  in
  Ok { base with engine; timeout_s; store }

let pp ppf t =
  let policy =
    match t.store with
    | Store_off -> "off"
    | Store_in None -> "warm"
    | Store_in (Some d) -> "warm:" ^ d
    | Store_cold None -> "cold"
    | Store_cold (Some d) -> "cold:" ^ d
  in
  Fmt.pf ppf "engine=%s jobs=%s store=%s%s%s"
    (Sim.mode_to_string t.engine)
    (match t.jobs with Some j -> string_of_int j | None -> "default")
    policy
    (match t.timeout_s with
    | Some s -> Printf.sprintf " timeout=%gs" s
    | None -> "")
    (if t.sink <> None then " sink" else "")
