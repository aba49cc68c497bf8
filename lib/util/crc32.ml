let table =
  lazy
    (let t = Array.make 256 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
       done;
       t.(n) <- !c
     done;
     t)

let update crc b off len =
  let t = Lazy.force table in
  let crc = ref crc in
  for i = off to off + len - 1 do
    crc := t.((!crc lxor Char.code (Bytes.get b i)) land 0xff) lxor (!crc lsr 8)
  done;
  !crc

let bytes ?(off = 0) ?len b =
  let len = match len with None -> Bytes.length b - off | Some l -> l in
  update 0xffffffff b off len lxor 0xffffffff

let string s = bytes (Bytes.unsafe_of_string s)

let combine ?(off = 0) ?len crc b =
  let len = match len with None -> Bytes.length b - off | Some l -> l in
  update (crc lxor 0xffffffff) b off len lxor 0xffffffff
