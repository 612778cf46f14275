let threshold_bytes = 8

let scheme_for ~key_len ?(granularity = Pk_partialkey.Partial_key.Byte) ?(l_bytes = 2) () =
  match key_len with
  | Some n when n <= threshold_bytes -> Layout.Direct { key_len = n }
  | Some _ | None -> Layout.Partial { granularity; l_bytes }
