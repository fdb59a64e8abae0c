let version = 1
let magic = "SNTL"
let header_len = 16
let max_payload = 16 * 1024 * 1024

exception Frame_error of string
exception Version_mismatch of int

let frame_error fmt = Printf.ksprintf (fun m -> raise (Frame_error m)) fmt

type t =
  | Hello of { version : int; client : string }
  | Send_many of { trace : int; events : string list }
  | Subscribe of { name : string; classes : string list; expr : string }
  | Unsubscribe of { sub_id : int }
  | Query of { cls : string; pred : string }
  | Drain
  | Stats_req
  | Ping of { token : int }
  | Hello_ack of { version : int; shards : int }
  | Ack of { count : int }
  | Sub_ack of { sub_id : int }
  | Notify of { sub_id : int; instances : string list }
  | Rows of { rows : (int * string * (string * string) list) list }
  | Query_done of { total : int }
  | Drain_done
  | Stats of { text : string }
  | Pong of { token : int }
  | Err of { code : int; msg : string }

let err_version = 1
let err_frame = 2
let err_request = 3
let err_degraded = 4
let err_overload = 5
let err_stopped = 6

let tag = function
  | Hello _ -> 0x01
  | Send_many _ -> 0x02
  | Subscribe _ -> 0x03
  | Unsubscribe _ -> 0x04
  | Query _ -> 0x05
  | Drain -> 0x06
  | Stats_req -> 0x07
  | Ping _ -> 0x08
  | Hello_ack _ -> 0x81
  | Ack _ -> 0x82
  | Sub_ack _ -> 0x83
  | Notify _ -> 0x84
  | Rows _ -> 0x85
  | Query_done _ -> 0x86
  | Drain_done -> 0x87
  | Stats _ -> 0x88
  | Pong _ -> 0x89
  | Err _ -> 0x8A

(* --- payload primitives ----------------------------------------------------

   Big-endian fixed-width integers and u32-length-prefixed strings over a
   Buffer (writing) / string+cursor (reading).  Ints travel as i64 (OCaml
   ints are 63-bit, so every int fits); short counts as u32. *)

let put_u32 buf v =
  if v < 0 || v > 0xFFFF_FFFF then frame_error "u32 out of range: %d" v;
  Buffer.add_char buf (Char.chr ((v lsr 24) land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 16) land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF));
  Buffer.add_char buf (Char.chr (v land 0xFF))

let put_i64 buf v =
  let v64 = Int64.of_int v in
  for i = 7 downto 0 do
    Buffer.add_char buf
      (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical v64 (i * 8)) 0xFFL)))
  done

let put_str buf s =
  put_u32 buf (String.length s);
  Buffer.add_string buf s

let put_list buf put items =
  put_u32 buf (List.length items);
  List.iter (put buf) items

(* A cursor reads [data] from [pos] up to [lim], the end of the frame's
   payload; [data] may be longer (a reader's reusable buffer), so every
   bound is checked against [lim], never against [String.length data]. *)
type cursor = { data : string; mutable pos : int; lim : int }

let need cur n =
  if cur.pos + n > cur.lim then
    frame_error "payload truncated at byte %d (need %d more)" cur.pos n

let get_u32 cur =
  need cur 4;
  let b i = Char.code cur.data.[cur.pos + i] in
  let v = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
  cur.pos <- cur.pos + 4;
  v

let get_i64 cur =
  need cur 8;
  let v = ref 0L in
  for i = 0 to 7 do
    v := Int64.logor (Int64.shift_left !v 8)
           (Int64.of_int (Char.code cur.data.[cur.pos + i]))
  done;
  cur.pos <- cur.pos + 8;
  Int64.to_int !v

let get_str cur =
  let len = get_u32 cur in
  need cur len;
  let s = String.sub cur.data cur.pos len in
  cur.pos <- cur.pos + len;
  s

let get_list cur get =
  let n = get_u32 cur in
  (* cheap bomb guard: every element costs at least one length byte *)
  if n > cur.lim - cur.pos then
    frame_error "list count %d exceeds remaining payload" n;
  List.init n (fun _ -> get cur)

(* --- message payloads ------------------------------------------------------ *)

let encode_payload buf = function
  | Hello { version; client } ->
    put_u32 buf version;
    put_str buf client
  | Send_many { trace; events } ->
    put_i64 buf trace;
    put_list buf put_str events
  | Subscribe { name; classes; expr } ->
    put_str buf name;
    put_list buf put_str classes;
    put_str buf expr
  | Unsubscribe { sub_id } -> put_u32 buf sub_id
  | Query { cls; pred } ->
    put_str buf cls;
    put_str buf pred
  | Drain | Stats_req | Drain_done -> ()
  | Ping { token } -> put_i64 buf token
  | Hello_ack { version; shards } ->
    put_u32 buf version;
    put_u32 buf shards
  | Ack { count } -> put_u32 buf count
  | Sub_ack { sub_id } -> put_u32 buf sub_id
  | Notify { sub_id; instances } ->
    put_u32 buf sub_id;
    put_list buf put_str instances
  | Rows { rows } ->
    put_list buf
      (fun buf (oid, cls, attrs) ->
        put_i64 buf oid;
        put_str buf cls;
        put_list buf
          (fun buf (name, v) ->
            put_str buf name;
            put_str buf v)
          attrs)
      rows
  | Query_done { total } -> put_u32 buf total
  | Stats { text } -> put_str buf text
  | Pong { token } -> put_i64 buf token
  | Err { code; msg } ->
    put_u32 buf code;
    put_str buf msg

let decode_payload tag_v cur =
  match tag_v with
  | 0x01 ->
    let version = get_u32 cur in
    let client = get_str cur in
    Hello { version; client }
  | 0x02 ->
    let trace = get_i64 cur in
    let events = get_list cur get_str in
    Send_many { trace; events }
  | 0x03 ->
    let name = get_str cur in
    let classes = get_list cur get_str in
    let expr = get_str cur in
    Subscribe { name; classes; expr }
  | 0x04 -> Unsubscribe { sub_id = get_u32 cur }
  | 0x05 ->
    let cls = get_str cur in
    let pred = get_str cur in
    Query { cls; pred }
  | 0x06 -> Drain
  | 0x07 -> Stats_req
  | 0x08 -> Ping { token = get_i64 cur }
  | 0x81 ->
    let version = get_u32 cur in
    let shards = get_u32 cur in
    Hello_ack { version; shards }
  | 0x82 -> Ack { count = get_u32 cur }
  | 0x83 -> Sub_ack { sub_id = get_u32 cur }
  | 0x84 ->
    let sub_id = get_u32 cur in
    let instances = get_list cur get_str in
    Notify { sub_id; instances }
  | 0x85 ->
    let rows =
      get_list cur (fun cur ->
          let oid = get_i64 cur in
          let cls = get_str cur in
          let attrs =
            get_list cur (fun cur ->
                let name = get_str cur in
                let v = get_str cur in
                (name, v))
          in
          (oid, cls, attrs))
    in
    Rows { rows }
  | 0x86 -> Query_done { total = get_u32 cur }
  | 0x87 -> Drain_done
  | 0x88 -> Stats { text = get_str cur }
  | 0x89 -> Pong { token = get_i64 cur }
  | 0x8A ->
    let code = get_u32 cur in
    let msg = get_str cur in
    Err { code; msg }
  | t -> frame_error "unknown message tag 0x%02x" t

(* --- framing --------------------------------------------------------------- *)

let encode ?(version = version) msg =
  let payload = Buffer.create 64 in
  encode_payload payload msg;
  let payload = Buffer.contents payload in
  if String.length payload > max_payload then
    frame_error "payload %d bytes exceeds max %d" (String.length payload)
      max_payload;
  let buf = Buffer.create (header_len + String.length payload) in
  Buffer.add_string buf magic;
  Buffer.add_char buf (Char.chr (version land 0xFF));
  Buffer.add_char buf (Char.chr (tag msg));
  Buffer.add_char buf '\000';
  Buffer.add_char buf '\000';
  put_u32 buf (String.length payload);
  put_u32 buf (Oodb.Storage.Crc32.string payload);
  Buffer.add_string buf payload;
  Buffer.contents buf

(* Parse the 16-byte header; returns (version, tag, payload_len, crc). *)
let parse_header h =
  if String.length h < header_len then frame_error "header truncated";
  if String.sub h 0 4 <> magic then
    frame_error "bad magic %S" (String.sub h 0 4);
  let v = Char.code h.[4] in
  let tag_v = Char.code h.[5] in
  if h.[6] <> '\000' || h.[7] <> '\000' then frame_error "non-zero flags";
  let b i = Char.code h.[i] in
  let len = (b 8 lsl 24) lor (b 9 lsl 16) lor (b 10 lsl 8) lor b 11 in
  let crc = (b 12 lsl 24) lor (b 13 lsl 16) lor (b 14 lsl 8) lor b 15 in
  if len > max_payload then frame_error "payload length %d exceeds max" len;
  if v <> version then raise (Version_mismatch v);
  (v, tag_v, len, crc)

(* Decode the [len]-byte payload at [pos] in [data]; the one decode path
   behind {!decode}, {!read} and {!read_fd}. *)
let decode_payload_at tag_v data pos len crc =
  if Oodb.Storage.Crc32.sub data pos len <> crc then frame_error "CRC mismatch";
  let cur = { data; pos; lim = pos + len } in
  let msg = decode_payload tag_v cur in
  if cur.pos <> cur.lim then
    frame_error "trailing payload bytes (%d unread)" (cur.lim - cur.pos);
  msg

let decode s =
  let _, tag_v, len, crc = parse_header s in
  if String.length s <> header_len + len then
    frame_error "frame length %d, header promises %d" (String.length s)
      (header_len + len);
  decode_payload_at tag_v s header_len len crc

(* --- blocking stream I/O --------------------------------------------------- *)

let rec retry_eintr f =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> retry_eintr f

let rec write_all fd b pos len =
  if len > 0 then begin
    let n = retry_eintr (fun () -> Unix.write fd b pos len) in
    write_all fd b (pos + n) (len - n)
  end

let write_fd fd ?version msg =
  let s = encode ?version msg in
  write_all fd (Bytes.unsafe_of_string s) 0 (String.length s);
  String.length s

(* Fill [b.[0 .. len-1]] from the socket; End_of_file on a peer close. *)
let read_exact fd b len =
  let pos = ref 0 in
  while !pos < len do
    let n = retry_eintr (fun () -> Unix.read fd b !pos (len - !pos)) in
    if n = 0 then raise End_of_file;
    pos := !pos + n
  done

type reader = {
  r_fd : Unix.file_descr;
  r_header : Bytes.t;
  mutable r_payload : Bytes.t;  (* reused while payloads fit in it *)
}

(* Payload buffers up to this size are kept for the next frame; a larger
   payload gets a buffer of its own, so one outsized frame does not pin its
   size for the life of the connection. *)
let reader_keep_max = 1 lsl 20

let reader fd =
  { r_fd = fd; r_header = Bytes.create header_len; r_payload = Bytes.empty }

let payload_buffer r len =
  let have = Bytes.length r.r_payload in
  if len <= have then r.r_payload
  else if len > reader_keep_max then Bytes.create len
  else begin
    r.r_payload <- Bytes.create (min reader_keep_max (max len (2 * have)));
    r.r_payload
  end

(* The buffers are only ever read through the cursor, which copies out
   every string it returns, so viewing them as strings is safe. *)
let read r =
  read_exact r.r_fd r.r_header header_len;
  let _, tag_v, len, crc = parse_header (Bytes.unsafe_to_string r.r_header) in
  let payload = payload_buffer r len in
  read_exact r.r_fd payload len;
  (decode_payload_at tag_v (Bytes.unsafe_to_string payload) 0 len crc,
   header_len + len)

let read_fd fd = read (reader fd)
