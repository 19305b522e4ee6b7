type pkru = int

let num_keys = 16
let max_usable_keys = 15
let default_key = 0
let allow_all = 0

let check_key k =
  if k < 0 || k >= num_keys then invalid_arg (Printf.sprintf "Mpk: key %d out of range" k)

(* Access disabled on every key. *)
let deny_all =
  let r = ref 0 in
  for k = 0 to num_keys - 1 do
    r := !r lor (0b11 lsl (2 * k))
  done;
  !r

let clear_key pkru k = pkru land lnot (0b11 lsl (2 * k))

let allow_only keys =
  List.iter check_key keys;
  (* Start fully restricted, then clear the bits for the permitted keys. *)
  List.fold_left clear_key deny_all keys

let allow_default_and key =
  check_key key;
  clear_key (clear_key deny_all default_key) key

let allows pkru ~key ~write =
  check_key key;
  let ad = pkru land (1 lsl (2 * key)) <> 0 in
  let wd = pkru land (1 lsl ((2 * key) + 1)) <> 0 in
  (not ad) && not (write && wd)

let pp ppf pkru =
  let allowed = ref [] in
  for k = num_keys - 1 downto 0 do
    if allows pkru ~key:k ~write:false then allowed := k :: !allowed
  done;
  Format.fprintf ppf "pkru{allow=%s}" (String.concat "," (List.map string_of_int !allowed))
