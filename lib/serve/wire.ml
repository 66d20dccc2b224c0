(* Wire protocol: framing, message codecs, and the canonical-request
   decoder (see wire.mli for the format contracts).

   The request decoder is the exact inverse of Sim.canonical (sim.ml):
   a cursor walks the space-terminated token stream — ints as decimal,
   floats as %h, strings length-prefixed, options as "- "/"+ " — and
   rebuilds the records field by field.  Rather than trusting the
   parser to be lossless, request_of_canonical re-serialises the parsed
   request and compares bytes with the input; anything the round trip
   does not reproduce exactly is rejected. *)

module Sim = Lf_machine.Sim
module Exec = Lf_machine.Exec
module Machine = Lf_machine.Machine
module Cache = Lf_cache.Cache
module Schedule = Lf_core.Schedule
module Partition = Lf_core.Partition
module Derive = Lf_core.Derive
module Ir = Lf_ir.Ir

let max_frame = 16 * 1024 * 1024

type client_msg =
  | Request of { rid : int; req : Sim.request }
  | Stats_query
  | Ping

type progress = {
  g_rid : int;
  g_phases : int;
  g_refs : int;
  g_misses : int;
  g_elapsed_s : float;
}

type server_msg =
  | Accepted of { rid : int; position : int }
  | Overloaded of { rid : int; reason : string }
  | Rejected of { rid : int; reason : string }
  | Progress of progress
  | Result of {
      rid : int;
      from_store : bool;
      wall_s : float;
      result : Exec.result;
    }
  | Stats_reply of (string * int) list
  | Pong

(* ------------------------------------------------------------------ *)
(* Token cursor over Sim.canonical's space-terminated rendering.       *)

exception Parse_fail of string

let fail fmt = Printf.ksprintf (fun m -> raise (Parse_fail m)) fmt

type cursor = { s : string; mutable pos : int }

(* generous structural bound: no field of a real request approaches it,
   and it keeps a hostile length prefix from driving an allocation *)
let max_count = 1_000_000

let lit cur l =
  let n = String.length l in
  if cur.pos + n <= String.length cur.s && String.sub cur.s cur.pos n = l then
    cur.pos <- cur.pos + n
  else fail "expected %S at offset %d" l cur.pos

let token cur =
  match String.index_from_opt cur.s cur.pos ' ' with
  | None -> fail "unterminated token at offset %d" cur.pos
  | Some i ->
    let t = String.sub cur.s cur.pos (i - cur.pos) in
    cur.pos <- i + 1;
    t

let p_int cur =
  match int_of_string_opt (token cur) with
  | Some n -> n
  | None -> fail "bad integer near offset %d" cur.pos

let p_count cur =
  let n = p_int cur in
  if n < 0 || n > max_count then fail "count %d out of range" n;
  n

let p_float cur =
  (* %h renders as 0x1.abcp+3 (or nan/infinity); float_of_string
     accepts all of them *)
  match float_of_string_opt (token cur) with
  | Some f -> f
  | None -> fail "bad float near offset %d" cur.pos

let p_str cur =
  let n = p_count cur in
  if cur.pos + n + 1 > String.length cur.s then fail "string overruns payload";
  let s = String.sub cur.s cur.pos n in
  cur.pos <- cur.pos + n;
  if cur.s.[cur.pos] <> ' ' then fail "missing string terminator";
  cur.pos <- cur.pos + 1;
  s

let p_opt cur p =
  if cur.pos + 2 > String.length cur.s then fail "truncated option"
  else
    match String.sub cur.s cur.pos 2 with
    | "- " ->
      cur.pos <- cur.pos + 2;
      None
    | "+ " ->
      cur.pos <- cur.pos + 2;
      Some (p cur)
    | t -> fail "bad option tag %S" t

let p_int_array cur =
  let n = p_count cur in
  Array.init n (fun _ -> p_int cur)

(* --- the request's component records ------------------------------- *)

let p_cache_config cur =
  let capacity = p_int cur in
  let line = p_int cur in
  let assoc = p_int cur in
  { Cache.capacity; line; assoc }

let p_machine cur =
  let mname = p_str cur in
  let max_procs = p_int cur in
  let hypernode = p_int cur in
  let cache = p_cache_config cur in
  let tlb = p_opt cur p_cache_config in
  let op = p_float cur in
  let hit = p_float cur in
  let miss_local = p_float cur in
  let miss_remote = p_float cur in
  let barrier_base = p_float cur in
  let barrier_per_proc = p_float cur in
  let loop_overhead = p_float cur in
  let iter_overhead = p_float cur in
  let tlb_miss = p_float cur in
  {
    Machine.mname;
    max_procs;
    hypernode;
    cache;
    tlb;
    cost =
      {
        Machine.op;
        hit;
        miss_local;
        miss_remote;
        barrier_base;
        barrier_per_proc;
        loop_overhead;
        iter_overhead;
        tlb_miss;
      };
  }

let p_layout cur =
  let elem_bytes = p_int cur in
  let total_bytes = p_int cur in
  let n = p_count cur in
  let placements =
    List.init n (fun _ ->
        let key = p_str cur in
        let name = p_str cur in
        let start = p_int cur in
        let aextents = p_int_array cur in
        (key, { Partition.name; start; aextents }))
  in
  { Partition.elem_bytes; placements; total_bytes }

let p_derive cur =
  let depth = p_int cur in
  let nnests = p_int cur in
  let mat () =
    let n = p_count cur in
    Array.init n (fun _ -> p_int_array cur)
  in
  let shift = mat () in
  let peel = mat () in
  { Derive.depth; nnests; shift; peel }

let p_schedule cur prog =
  let nprocs = p_int cur in
  let grid = p_int_array cur in
  let nlabels = p_count cur in
  let labels = List.init nlabels (fun _ -> p_str cur) in
  let nphases = p_count cur in
  let phases =
    List.init nphases (fun _ ->
        let procs = p_count cur in
        Array.init procs (fun _ ->
            let nboxes = p_count cur in
            List.init nboxes (fun _ ->
                let nest = p_int cur in
                let nranges = p_count cur in
                let ranges =
                  Array.init nranges (fun _ ->
                      let lo = p_int cur in
                      let hi = p_int cur in
                      (lo, hi))
                in
                { Schedule.nest; ranges })))
  in
  { Schedule.prog; nprocs; grid; phases; labels }

let p_variant cur prog =
  if cur.pos + 8 <= String.length cur.s && String.sub cur.s cur.pos 8 = "unfused "
  then begin
    cur.pos <- cur.pos + 8;
    let grid = p_opt cur p_int_array in
    let depth = p_opt cur p_int in
    Sim.Unfused { grid; depth }
  end
  else if
    cur.pos + 6 <= String.length cur.s && String.sub cur.s cur.pos 6 = "fused "
  then begin
    cur.pos <- cur.pos + 6;
    let grid = p_opt cur p_int_array in
    let strip = p_opt cur p_int in
    let derive = p_opt cur p_derive in
    Sim.Fused { grid; strip; derive }
  end
  else if
    cur.pos + 9 <= String.length cur.s
    && String.sub cur.s cur.pos 9 = "explicit "
  then begin
    cur.pos <- cur.pos + 9;
    Sim.Explicit (p_schedule cur prog)
  end
  else fail "unknown variant tag at offset %d" cur.pos

let request_of_canonical text =
  match
    let cur = { s = text; pos = 0 } in
    lit cur "lf-request ";
    let ptext = p_str cur in
    let prog =
      match Lf_front.Parse.program ptext with
      | p -> p
      | exception Lf_front.Parse.Syntax_error m -> fail "program: %s" m
      | exception Ir.Invalid m -> fail "program: %s" m
    in
    lit cur "\nmachine ";
    let machine = p_machine cur in
    lit cur "\nvariant ";
    let variant = p_variant cur prog in
    lit cur "\nlayout ";
    let layout = p_opt cur p_layout in
    lit cur "\nnprocs ";
    let nprocs = p_int cur in
    lit cur "\nsteps ";
    let steps = p_int cur in
    lit cur "\nmode ";
    let mode =
      match
        Sim.mode_of_string
          (String.sub cur.s cur.pos (String.length cur.s - cur.pos))
      with
      | Ok m -> m
      | Error m -> fail "%s" m
    in
    (match Sim.make ?layout ~steps ~mode ~machine ~nprocs ~variant prog with
    | r -> r
    | exception Invalid_argument m -> fail "%s" m)
  with
  | exception Parse_fail m -> Error ("request: " ^ m)
  | r ->
    (* strict round trip: only the canonical bytes name a request, so
       the digest the server computes is the digest the client meant *)
    if Sim.canonical r = text then Ok r
    else Error "request: payload is not the canonical form of its request"

(* ------------------------------------------------------------------ *)
(* Result codec: the store's body lines under the [lfwire1] header.    *)

module Result_lines = Lf_batch.Batch.Result_lines

let result_to_string (res : Exec.result) =
  let b = Buffer.create 256 in
  Buffer.add_string b "lfwire1\n";
  Result_lines.add b res;
  Buffer.contents b

let result_of_string text : (Exec.result, string) result =
  let cur = Result_lines.cursor text in
  match
    if Result_lines.next cur <> "lfwire1" then
      raise (Result_lines.Malformed "bad header");
    Result_lines.read cur
  with
  | exception Result_lines.Malformed m -> Error ("result: " ^ m)
  | r -> Ok r

(* ------------------------------------------------------------------ *)
(* Payload codecs.  First byte is the tag; numeric fields reuse the
   space-terminated token syntax so the cursor utilities above parse
   both directions of the protocol.                                    *)

let add_int b n =
  Buffer.add_string b (string_of_int n);
  Buffer.add_char b ' '

let add_str b s =
  add_int b (String.length s);
  Buffer.add_string b s;
  Buffer.add_char b ' '

let fbits x = Int64.to_string (Int64.bits_of_float x)

let p_fbits cur =
  match Int64.of_string_opt (token cur) with
  | Some bits -> Int64.float_of_bits bits
  | None -> fail "bad float bits near offset %d" cur.pos

let client_msg_to_payload = function
  | Ping -> "P"
  | Stats_query -> "S"
  | Request { rid; req } ->
    let b = Buffer.create 1024 in
    Buffer.add_char b 'R';
    add_int b rid;
    Buffer.add_char b '\n';
    Buffer.add_string b (Sim.canonical req);
    Buffer.contents b

let client_msg_of_payload payload =
  if payload = "" then Error "empty payload"
  else
    match payload.[0] with
    | 'P' when payload = "P" -> Ok Ping
    | 'S' when payload = "S" -> Ok Stats_query
    | 'R' -> (
      let cur = { s = payload; pos = 1 } in
      match
        let rid = p_int cur in
        if rid < 0 then fail "negative rid";
        lit cur "\n";
        rid
      with
      | exception Parse_fail m -> Error ("request: " ^ m)
      | rid -> (
        match
          request_of_canonical
            (String.sub payload cur.pos (String.length payload - cur.pos))
        with
        | Ok req -> Ok (Request { rid; req })
        | Error m -> Error m))
    | c -> Error (Printf.sprintf "unknown client message tag %C" c)

let server_msg_to_payload = function
  | Pong -> "p"
  | Accepted { rid; position } ->
    let b = Buffer.create 32 in
    Buffer.add_char b 'a';
    add_int b rid;
    add_int b position;
    Buffer.contents b
  | Overloaded { rid; reason } ->
    let b = Buffer.create 64 in
    Buffer.add_char b 'o';
    add_int b rid;
    add_str b reason;
    Buffer.contents b
  | Rejected { rid; reason } ->
    let b = Buffer.create 64 in
    Buffer.add_char b 'j';
    add_int b rid;
    add_str b reason;
    Buffer.contents b
  | Progress g ->
    let b = Buffer.create 64 in
    Buffer.add_char b 'g';
    add_int b g.g_rid;
    add_int b g.g_phases;
    add_int b g.g_refs;
    add_int b g.g_misses;
    Buffer.add_string b (fbits g.g_elapsed_s);
    Buffer.add_char b ' ';
    Buffer.contents b
  | Result { rid; from_store; wall_s; result } ->
    let b = Buffer.create 512 in
    Buffer.add_char b 'r';
    add_int b rid;
    add_int b (if from_store then 1 else 0);
    Buffer.add_string b (fbits wall_s);
    Buffer.add_string b " \n";
    Buffer.add_string b (result_to_string result);
    Buffer.contents b
  | Stats_reply kvs ->
    let b = Buffer.create 256 in
    Buffer.add_char b 'x';
    add_int b (List.length kvs);
    List.iter
      (fun (k, v) ->
        add_str b k;
        add_int b v)
      kvs;
    Buffer.contents b

let server_msg_of_payload payload =
  if payload = "" then Error "empty payload"
  else
    let cur = { s = payload; pos = 1 } in
    match
      match payload.[0] with
      | 'p' when payload = "p" -> Pong
      | 'a' ->
        let rid = p_int cur in
        let position = p_int cur in
        Accepted { rid; position }
      | 'o' ->
        let rid = p_int cur in
        let reason = p_str cur in
        Overloaded { rid; reason }
      | 'j' ->
        let rid = p_int cur in
        let reason = p_str cur in
        Rejected { rid; reason }
      | 'g' ->
        let g_rid = p_int cur in
        let g_phases = p_int cur in
        let g_refs = p_int cur in
        let g_misses = p_int cur in
        let g_elapsed_s = p_fbits cur in
        Progress { g_rid; g_phases; g_refs; g_misses; g_elapsed_s }
      | 'r' -> (
        let rid = p_int cur in
        let from_store = p_int cur <> 0 in
        let wall_s = p_fbits cur in
        lit cur "\n";
        match
          result_of_string
            (String.sub payload cur.pos (String.length payload - cur.pos))
        with
        | Ok result -> Result { rid; from_store; wall_s; result }
        | Error m -> fail "%s" m)
      | 'x' ->
        let n = p_count cur in
        Stats_reply
          (List.init n (fun _ ->
               let k = p_str cur in
               let v = p_int cur in
               (k, v)))
      | c -> fail "unknown server message tag %C" c
    with
    | exception Parse_fail m -> Error m
    | msg -> Ok msg

(* ------------------------------------------------------------------ *)
(* Framed socket I/O.                                                  *)

type read_error = Eof | Truncated | Oversized of int | Io of string

let read_error_to_string = function
  | Eof -> "end of stream"
  | Truncated -> "truncated frame"
  | Oversized n -> Printf.sprintf "oversized frame (%d bytes)" n
  | Io m -> "i/o error: " ^ m

let rec write_all fd b off len =
  if len > 0 then begin
    let k =
      try Unix.write fd b off len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_all fd b (off + k) (len - k)
  end

let write_frame fd payload =
  let n = String.length payload in
  if n > max_frame then invalid_arg "Wire.write_frame: payload too large";
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b 4 n;
  write_all fd b 0 (4 + n)

(* Read exactly [n] bytes; [`Eof] only when the stream ends on a frame
   boundary (nothing read yet), [`Truncated] when it ends inside. *)
let read_exact fd n =
  let b = Bytes.create n in
  let rec go off =
    if off = n then Ok b
    else
      match Unix.read fd b off (n - off) with
      | 0 -> if off = 0 then Error Eof else Error Truncated
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error (e, _, _) -> Error (Io (Unix.error_message e))
  in
  go 0

let read_frame fd =
  match read_exact fd 4 with
  | Error e -> Error e
  | Ok hdr -> (
    let n = Int32.to_int (Bytes.get_int32_be hdr 0) in
    if n < 0 || n > max_frame then Error (Oversized n)
    else
      match read_exact fd n with
      | Ok b -> Ok (Bytes.to_string b)
      | Error Eof -> if n = 0 then Ok "" else Error Truncated
      | Error e -> Error e)
