(* Chaos-found regressions as literal op streams.

   Each entry is (registry tag, fault plan, scenario, outcome): the
   exact configuration, key pool, fault plan and op sequence a seeded
   chaos schedule drew when it found a real latent bug, and the outcome
   that schedule reported once the bug was fixed.  They are literal
   because a seed replays only under the generator that drew it, and
   generators change.

   - B-tree root collapse (B seed 73): deleting an absent key could
     merge the root's two children without collapsing the root.
   - T-tree underfull internal node (pkT seed 50): an insert-side AVL
     rotation promoted a node to internal below the occupancy minimum
     and the entry slide could not refill it.
   - Prefix B+-tree parent overflow (prefix seed 206): a delete-side
     re-split refreshed a parent separator with a longer one and
     overflowed the parent's slot directory. *)

open Pk_chaos.Chaos

let keys l = Array.of_list (List.map Pk_keys.Key.of_string l)

(* B seed 73, 120 ops. *)
let b_tree_root_collapse =
  ( "B-indirect",
    [
      ("btree.merge", Fault.One_shot 20);
      ("ttree.rotate.mid", Fault.One_shot 6);
      ("arena.alloc", Fault.Every_nth 5);
      ("engine.compact.mid", Fault.One_shot 17);
    ],
    {
      Opstream.seed = 73;
      config =
        { node_bytes = 128; key_len = 14; alphabet = 12; fill = 0.85939468422845078 };
      pool =
        keys
          [
            "\xea\xea\x40\xaa\x95\x2a\xea\xaa\xea\xd5\xc0\xaa\x15\xc0";
            "\x55\x95\xd5\x80\x40\x00\x6a\x6a\xd5\xc0\xd5\xc0\xc0\xc0";
            "\xaa\x55\x95\x6a\x15\x6a\xd5\x2a\xea\xea\x95\xc0\xaa\x00";
            "\x95\x00\x95\x6a\xd5\x40\x6a\x55\xc0\xea\x00\xea\xaa\x2a";
            "\xc0\x2a\x6a\x80\x15\x95\x80\x40\x55\x15\x15\x55\x55\xc0";
            "\xd5\x40\x15\xea\x6a\x15\x2a\x80\x15\xc0\x95\x2a\xd5\x40";
            "\xaa\x80\x2a\x80\x80\x80\xd5\x15\xaa\xd5\x95\xc0\x40\x40";
            "\x40\xc0\x95\xea\x80\x15\x55\x6a\x95\xd5\xc0\xd5\x2a\x15";
            "\x80\x95\xea\x40\x2a\xea\xea\x2a\xc0\x40\x55\x55\xd5\x2a";
            "\xea\xc0\x80\x95\x00\xc0\xc0\x15\xd5\x15\x00\x15\x40\x40";
            "\x2a\xaa\x00\x2a\xd5\x80\x55\x40\xd5\x2a\x40\x2a\xea\xd5";
            "\xd5\x95\x2a\xd5\x2a\x95\x95\xc0\x2a\xea\xd5\x15\x15\x2a";
            "\x00\xea\xd5\xd5\x00\xd5\x00\x55\xc0\x15\xc0\x55\x6a\xd5";
            "\x2a\x6a\x15\xc0\xaa\x95\x15\x40\x55\xaa\x15\x2a\x55\x15";
            "\xc0\x00\x2a\xd5\xc0\x6a\x15\x15\x55\xd5\x80\x80\xd5\x80";
            "\x55\x40\x2a\x40\x6a\x15\xaa\x00\x40\x40\x55\xea\xea\xaa";
            "\xea\x6a\x2a\x2a\x00\x80\x2a\xea\x00\x55\x95\x00\x40\xc0";
            "\xea\x2a\xd5\xd5\xd5\xc0\x6a\x40\x15\x95\x80\x6a\x6a\x55";
            "\x95\x2a\xc0\x2a\x95\x2a\xc0\x15\xaa\x00\x15\x2a\xc0\x00";
            "\x2a\x00\x95\x00\x00\x6a\x40\x55\x40\x40\x80\x40\x55\x40";
            "\x95\x80\x40\x55\x80\x15\x95\xc0\x6a\xc0\xd5\x00\xaa\xc0";
            "\x95\x80\x00\x55\x55\x55\x00\x15\x00\x55\x40\x80\xd5\x2a";
            "\xaa\xc0\x15\xea\x15\xc0\x40\x15\x2a\x6a\xd5\xd5\xea\x40";
            "\x00\x95\x80\x40\x55\x15\xaa\xea\x00\x2a\x55\x00\xaa\xea";
            "\xc0\x6a\x55\x00\xd5\x55\x2a\x6a\xd5\x2a\xea\x80\xaa\x95";
            "\x2a\xea\x15\x6a\x2a\x6a\x2a\x40\x40\x40\x00\x15\xaa\x40";
            "\x15\xaa\x6a\x40\x15\x00\x15\x2a\x15\x6a\x40\x6a\x40\x40";
            "\x00\xaa\x55\xea\x6a\x00\x2a\x55\x95\x6a\x95\xaa\x40\xea";
            "\xd5\x15\xc0\x40\xd5\x55\xea\x6a\x6a\x15\x40\xd5\x2a\x00";
            "\x95\x00\x15\x2a\x80\x95\x40\x80\x40\x95\x40\xc0\x95\x00";
            "\x6a\x15\x00\x6a\x95\x95\xea\xea\xc0\xea\xaa\x80\x15\x95";
            "\x95\xea\x15\x15\x55\xea\xd5\x95\xd5\x55\xc0\x2a\x15\x15";
            "\x2a\xc0\x80\x95\x55\x40\x6a\xc0\x15\xaa\x00\x40\xd5\x95";
            "\x95\x2a\x2a\xaa\x55\xaa\xea\x15\x00\xaa\x55\x6a\xaa\x15";
            "\x6a\x00\x40\x95\x6a\xd5\x80\x00\x15\x40\x55\x6a\x2a\x6a";
            "\xea\x80\xd5\xd5\x2a\xc0\xea\x95\xc0\x00\x95\x80\x80\x55";
            "\x95\x00\x55\x55\x6a\xd5\x55\xea\x15\x15\x00\x55\x40\x40";
            "\xea\xd5\x55\xea\xd5\xd5\x95\x55\x15\x80\xea\x00\x00\x2a";
            "\x95\x40\x95\xc0\xaa\xea\x15\xaa\xd5\xc0\xea\x00\x95\x6a";
            "\x15\x55\x2a\xea\x80\x15\xaa\xc0\x95\xd5\xea\xaa\xaa\x15";
            "\x80\x80\xc0\xea\xaa\x2a\xea\xd5\xaa\xc0\x55\x6a\x6a\x80";
            "\x80\x6a\x15\x80\x55\x95\xd5\x95\xea\xaa\x15\x55\x2a\x6a"
          ];
      bulk = 23;
      ops =
        Opstream.
          [
            Insert 30; Delete 30; Insert 2; Delete 26; Insert 21; Lookup 31; Insert 27;
            Lookup 7; Delete 11; Insert 11; Insert 5; Insert 32; Insert 39; Delete 16;
            Lookup 11; Delete 27; Insert 0; Insert 4; Lookup 1; Delete 7; Delete 13; Insert 7;
            Delete 11; Lookup 34; Delete 17; Delete 32; Delete 25; Delete 5; Delete 23;
            Range (12, 13); Insert 6; Insert 38; Insert 20; Delete 35; Delete 31; Lookup 34;
            Lookup 32; Insert 4; Insert 23; Insert 33; Delete 23; Insert 2; Insert 36;
            Insert 18; Insert 3; Lookup 23; Insert 34; Delete 14; Lookup 28; Insert 0;
            Lookup 21; Delete 8; Delete 33; Delete 33; Lookup 29; Range (33, 39); Insert 37;
            Insert 39; Insert 5; Range (40, 36); Range (8, 19); Delete 6; Delete 27; Delete 31;
            Insert 24; Insert 15; Delete 15; Lookup 34; Insert 1; Insert 31; Range (12, 10);
            Insert 18; Range (38, 20); Delete 21; Insert 17; Delete 15; Delete 14; Insert 35;
            Insert 39; Delete 13; Delete 36; Delete 1; Delete 40; Lookup 25; Insert 30;
            Delete 3; Insert 10; Delete 11; Insert 25; Insert 29; Delete 34; Delete 5;
            Delete 29; Delete 20; Lookup 13; Insert 29; Lookup 40; Insert 13; Lookup 10;
            Insert 39; Insert 21; Insert 29; Lookup 28; Lookup 9; Delete 20; Range (6, 39);
            Lookup 9; Delete 10; Insert 21; Insert 36; Insert 15; Insert 31; Insert 34;
            Insert 30; Insert 8; Insert 21; Delete 9; Insert 5; Delete 23; Insert 27
          ];
    },
    { ops = 120; applied = 78; injected = 0; validations = 1 } )

(* pkT seed 50, 150 ops. *)
let t_tree_underfull_internal =
  ( "pkT",
    [
      ("engine.compact", Fault.Probability 0.018724410539826292);
      ("prefix.merge", Fault.Every_nth 61);
      ("btree.borrow", Fault.Probability 0.0076327339986211069);
    ],
    {
      Opstream.seed = 50;
      config =
        { node_bytes = 128; key_len = 13; alphabet = 220; fill = 0.88416691661189262 };
      pool =
        keys
          [
            "\xc4\x39\x97\xe0\xd3\x4b\x32\x9a\x19\x86\x66\xed\xb3";
            "\xa8\xf3\xc9\x43\x30\xd3\x59\xb2\xdd\x3c\xd9\x61\xfc";
            "\xac\xb4\x0b\x12\xad\xa0\xa1\x4f\xa5\x44\xf3\x0c\x52";
            "\xa4\xcd\xd4\x2f\x59\xda\x61\xbd\x4d\xe8\x25\xae\xcd";
            "\xc6\xc3\x8d\x59\xab\x40\x9b\x1e\xc3\xac\xcd\x2d\x13";
            "\xdd\x56\x34\xee\x3b\x0d\xbc\xb4\x77\x80\x65\x9b\x7a";
            "\x3d\xd6\x9b\x9e\x20\x1b\x5d\xda\x65\xe6\x83\xc5\x44";
            "\x0b\x8b\x8d\x6c\x60\xda\xa8\x4f\x50\x3a\xb7\x02\x43";
            "\xbb\x62\x91\x37\x2c\xae\x5f\x19\xc8\x1f\xd0\x1b\x1a";
            "\xc5\xca\xfd\x30\x13\x6c\xb9\x6f\x0f\x96\x1d\x16\x67";
            "\x4d\xf3\x9a\xf7\x45\x4a\xfa\x82\x50\x03\x0c\x3e\x85";
            "\x51\xab\x73\x91\x01\xbc\x0f\xfb\x34\x7b\x13\x34\xb6";
            "\x96\x9a\x27\xb6\x17\x05\x46\xe6\x13\x41\x94\xde\xe5";
            "\x99\xc3\x4f\x57\xbb\x5f\x81\x5e\xa0\x46\x43\x90\xfb";
            "\x6f\x66\x05\xa4\x83\x1a\x13\xf2\x66\x90\xd8\xc4\x0d";
            "\xba\x41\xbd\x1f\xc8\x8d\xeb\x77\x0b\x42\x8d\xfe\xa6";
            "\x61\x9f\xd8\x69\x13\x57\xa2\x7d\x12\xa5\x22\xb7\x85";
            "\xb7\xc5\x59\xed\x26\x0f\x09\xdb\xae\x6f\x57\x80\x90";
            "\x45\x91\x0c\x8f\xe0\x2b\x80\x44\xd2\x97\xb5\x28\x39";
            "\x22\xf2\x16\x99\x04\x22\xd8\x9a\xf9\x50\x99\x40\x4d";
            "\xf5\x6e\x48\x41\x11\x36\x70\x9e\x62\x82\xd6\x21\xb4";
            "\x03\xe6\x56\xb3\x8f\x59\xe1\xe7\xfb\x34\xf4\xc6\xa8";
            "\x11\x4c\x02\x6f\xfe\xee\xb4\x6f\x8c\x0b\xdf\x75\xd3";
            "\x89\xda\x6d\x82\x3c\x40\xd3\x9a\xd7\x0a\x3e\x0d\x45";
            "\xde\x74\x56\xf7\x7d\xfc\x40\xb9\x17\xa2\xfd\x9e\x70";
            "\x42\x9d\x0a\x60\xe5\x92\xd6\xcb\x9d\x8d\xd4\x0c\x2f";
            "\x7b\x11\xcb\x52\x06\x28\x0c\xd7\x76\x49\x0a\xe6\xd3";
            "\x0c\x88\x16\xb0\x35\xfe\x09\xe5\x70\x1d\x98\xc9\x90";
            "\x17\x74\x8d\x08\xda\x09\x5f\x81\x6e\x81\x9a\x7a\x1f";
            "\x5e\x0d\xfb\x37\x6d\x3d\x83\x4a\x19\x6b\x44\xcc\xe1";
            "\x74\x17\x81\x1a\x3d\x74\xc6\xcb\x43\x8c\xfe\x16\xcf";
            "\xb6\x09\x50\xb3\x54\x20\x45\x0b\x76\xb0\x6c\x0b\x1f";
            "\x1a\xc5\x61\x1d\xf4\xc6\x1b\x46\x9d\x56\xb0\x3d\x73";
            "\xab\x3e\x16\x93\x56\x77\xd1\x85\x19\x27\x9b\x94\x6d";
            "\xde\x6d\x5d\x41\x3c\xe1\x9d\x67\xed\x18\x1e\x2d\x48";
            "\x42\x98\x0f\xfe\xcf\xb5\x25\x72\x4b\xfb\x72\x04\x60";
            "\x7b\x41\xe2\x05\x30\x7b\xa6\xe9\xd2\x52\x08\x35\x48";
            "\x49\xcc\x52\x99\x7a\xa9\xd1\x01\x08\x52\xd3\x5e\x6c";
            "\x7b\x7b\x62\x97\xee\x2c\xd6\x43\x5b\x60\xa9\x4f\x2f";
            "\xbe\x54\xf2\x33\x28\x43\x54\x98\xa1\x21\xcf\xae\x99";
            "\x54\x26\xef\xc9\x74\x53\x4c\x44\x02\xf7\x7b\x5b\x7a";
            "\x60\xe4\x57\xa2\xef\x3e\xae\xf7\xc0\x22\xa5\x16\x49";
            "\x1b\xc9\x26\xbd\x21\xad\x70\x05\x5f\x74\x54\x05\x40"
          ];
      bulk = 11;
      ops =
        Opstream.
          [
            Batch_lookup [28; 41; 22; 19; 11; 6; 11; 17]; Lookup 30; Lookup 42; Lookup 1;
            Range (30, 40); Insert 42; Range (26, 12); Lookup 30; Delete 27; Insert 24;
            Delete 9; Delete 6; Delete 37; Lookup 28; Delete 8; Lookup 8; Delete 20; Insert 31;
            Lookup 29; Lookup 0; Delete 3; Lookup 8; Delete 35; Batch_insert [2; 35; 40; 14];
            Range (42, 42); Lookup 31; Insert 9; Batch_insert [5; 37; 15; 33; 23]; Delete 17;
            Lookup 14; Insert 4; Lookup 38; Batch_insert [30; 14; 16]; Range (27, 40);
            Insert 38; Lookup 39; Batch_insert [9; 38; 1; 11; 5; 41; 23; 5];
            Batch_delete [11; 7; 10; 15; 26; 8; 20]; Delete 31;
            Batch_insert [18; 42; 27; 38; 40; 22; 3]; Insert 0; Lookup 30; Insert 36; Insert 20;
            Batch_delete [16; 37; 14; 33; 25; 0]; Insert 39; Range (3, 5); Insert 30; Insert 18;
            Lookup 27; Delete 10; Delete 39; Batch_delete [34; 11; 40; 29; 12; 16; 23];
            Delete 24; Lookup 42; Insert 31; Batch_insert [5; 28]; Batch_insert [24; 4; 0; 19];
            Delete 2; Delete 31; Delete 18; Batch_delete [8; 24; 11; 28; 33; 30]; Insert 29;
            Insert 14; Delete 40; Batch_lookup [22; 34; 36; 22; 7]; Insert 10;
            Batch_delete [18; 29; 40; 20; 2; 11]; Insert 15;
            Batch_insert [29; 38; 11; 42; 24; 12; 15; 28]; Delete 32;
            Batch_lookup [41; 34; 37; 42; 15]; Batch_delete [21; 32; 23];
            Batch_insert [20; 39; 3; 2; 32; 12; 31; 40]; Lookup 38; Delete 14; Range (42, 36);
            Insert 19; Insert 2; Delete 15; Batch_insert [33; 17; 32]; Delete 33;
            Batch_delete [5; 37; 24]; Insert 38; Lookup 40; Delete 22; Delete 36; Lookup 27;
            Insert 19; Lookup 6; Insert 36; Range (2, 3);
            Batch_insert [34; 15; 22; 23; 22; 4; 42; 2]; Delete 10; Insert 28; Insert 1;
            Insert 9; Batch_insert [1; 9]; Delete 11; Lookup 11; Insert 25; Delete 12;
            Delete 18; Insert 18; Insert 42; Insert 24; Insert 13;
            Batch_insert [11; 30; 41; 40; 20; 34; 37]; Insert 36; Insert 20;
            Batch_delete [23; 27; 10; 22; 8; 31; 29]; Range (36, 11); Insert 9; Delete 41;
            Lookup 23; Lookup 2; Batch_insert [1; 14; 9; 5; 38; 25; 39; 28]; Insert 36;
            Lookup 26; Delete 3; Insert 11; Insert 29; Batch_delete [38; 42; 28; 11; 39];
            Insert 28; Lookup 41; Batch_insert [30; 24; 3; 30]; Insert 10; Lookup 1; Lookup 24;
            Batch_insert [27; 32; 14; 4; 25; 40]; Insert 38; Insert 6; Delete 14;
            Batch_lookup [7; 13; 24; 9; 32; 33; 29]; Delete 1; Insert 26; Delete 15; Lookup 27;
            Delete 9; Lookup 38; Insert 40; Insert 6; Batch_insert [33; 24; 39; 29; 10];
            Range (11, 16); Insert 23; Range (2, 42); Range (25, 10); Insert 23; Insert 26;
            Batch_lookup [25; 36; 39; 40]
          ];
    },
    { ops = 150; applied = 133; injected = 0; validations = 1 } )

(* prefix seed 206, 200 ops. *)
let prefix_parent_overflow =
  ( "B+/prefix",
    [
      ("arena.grow", Fault.One_shot 11);
      ("ttree.rotate", Fault.One_shot 11);
      ("ttree.rotate.mid", Fault.Probability 0.0023781755616806271);
    ],
    {
      Opstream.seed = 206;
      config =
        { node_bytes = 128; key_len = 10; alphabet = 12; fill = 0.76960550960316909 };
      pool =
        keys
          [
            "\x80\x15\x95\x15\x15\xea\x00\x6a\x6a\xd5";
            "\x55\x6a\x15\x55\x00\x95\x95\x95\x40\x6a";
            "\x15\x6a\x40\x80\x6a\x6a\xea\x80\x00\x15";
            "\x15\xea\xd5\x55\x95\x15\x80\x55\x95\x55";
            "\x55\x6a\x00\xea\xd5\x2a\x80\x80\x95\x55";
            "\xc0\xea\xc0\x2a\x00\x00\xc0\x80\x00\xea";
            "\x55\x40\xc0\x80\x6a\xaa\x00\xc0\xaa\x2a";
            "\x00\xea\xea\x00\xea\x00\x2a\x00\x15\x15";
            "\x2a\x2a\xea\x6a\x6a\x6a\x6a\x6a\xea\xea";
            "\xaa\x2a\xaa\x55\x15\xc0\xd5\x00\x6a\x6a";
            "\xea\xaa\x00\x55\xaa\x95\xd5\x95\x55\x95";
            "\x95\x6a\xaa\xaa\x6a\x15\xd5\x95\xaa\x80";
            "\x55\x80\x95\x95\x95\xea\x6a\x15\x00\xd5";
            "\x2a\xd5\xea\x15\x2a\x55\x95\x95\x95\xc0";
            "\xea\xaa\x55\x15\xea\xd5\x55\xd5\x15\x80";
            "\x6a\x40\x6a\x95\x15\x00\x40\xaa\x80\x6a";
            "\x80\x55\x15\xea\xc0\xc0\x55\x40\x2a\x40";
            "\x15\x55\x2a\xaa\x2a\x6a\xc0\xaa\xd5\xd5";
            "\x95\x15\xd5\x55\x55\xea\x15\x40\x6a\x40";
            "\xea\xc0\x95\x00\xaa\x55\x80\x00\x15\x80";
            "\xaa\x80\xc0\x2a\x6a\x00\x95\x40\x55\x6a";
            "\xea\x40\x2a\xd5\x2a\x40\x95\x00\xea\x80";
            "\xc0\x40\xea\x55\x55\x95\xc0\xaa\xea\x80";
            "\xd5\xaa\xc0\x00\x6a\xd5\x15\xaa\x2a\x6a";
            "\xea\xd5\x6a\xc0\x2a\x40\xd5\xd5\x6a\xaa";
            "\xd5\x80\xea\xea\x40\x95\x2a\x40\x40\x6a";
            "\xd5\x6a\x55\x40\x00\x80\x55\xea\x95\x6a";
            "\x80\x15\xd5\x00\x6a\x40\x80\xea\x80\xc0";
            "\x00\xea\x2a\x95\x00\xc0\x6a\x2a\x6a\x40";
            "\xc0\xea\xea\x2a\x40\x80\x55\x95\x00\xea";
            "\x6a\xd5\xd5\x2a\x40\x95\xd5\xea\x15\x40";
            "\xc0\x80\x55\xaa\xea\x40\xd5\xd5\xaa\x40";
            "\x95\x55\x00\x15\xea\x40\x55\xd5\x6a\x55";
            "\x80\x15\x55\xd5\xd5\x95\x80\xaa\x15\xea";
            "\xc0\x40\x40\x15\x00\xea\xd5\xd5\xaa\x55";
            "\x2a\x55\xc0\x15\x55\x95\xc0\x6a\xd5\xd5";
            "\xc0\x55\x00\x55\x95\x80\x55\xea\xd5\xaa";
            "\x80\x55\x15\xc0\x40\x95\xc0\x15\xd5\xaa";
            "\xea\x6a\x55\x00\x55\x6a\x15\xea\x95\x2a";
            "\x6a\x2a\x55\x00\x95\x2a\xc0\xaa\x15\x55";
            "\x95\x55\x2a\xd5\x95\x6a\x40\x55\xea\x95";
            "\xaa\xc0\x15\x40\x2a\x95\xaa\x80\x6a\x80";
            "\xea\xd5\xc0\x2a\x2a\x6a\xc0\x15\xd5\x6a";
            "\x55\x00\x55\x00\x80\x55\x2a\xaa\x6a\xc0";
            "\x55\x55\x80\x40\x95\xea\x95\x95\xd5\x95";
            "\xd5\x80\x40\x15\xea\xea\x2a\x00\x00\xd5";
            "\x2a\x80\x80\x95\xea\x2a\x55\xc0\x15\x2a";
            "\x2a\x6a\xd5\xaa\x55\xc0\xea\xc0\xc0\x15";
            "\x00\x15\x6a\x80\x95\xd5\x00\x00\x15\x80";
            "\x80\x6a\xc0\x2a\x80\x80\xaa\x55\x00\x2a";
            "\xaa\x80\x6a\xaa\x00\xaa\xd5\xd5\x15\x95";
            "\x55\x80\xd5\x15\x55\x55\x55\x40\xc0\xea";
            "\x00\x40\x95\x2a\x40\x80\x40\xaa\x15\x80"
          ];
      bulk = 27;
      ops =
        Opstream.
          [
            Lookup 4; Insert 37; Insert 9; Insert 20; Range (32, 33); Insert 27; Delete 27;
            Insert 8; Delete 51; Insert 27; Insert 36; Delete 16; Lookup 10; Lookup 26;
            Lookup 47; Delete 16; Delete 38; Insert 2; Lookup 6; Lookup 17; Insert 8; Insert 2;
            Delete 27; Insert 12; Lookup 50; Delete 28; Delete 2; Lookup 39; Delete 6;
            Delete 36; Lookup 17; Insert 13; Insert 31; Delete 32; Delete 37; Range (14, 22);
            Lookup 18; Delete 19; Insert 16; Insert 30; Delete 16; Insert 47; Range (7, 51);
            Lookup 46; Lookup 35; Delete 43; Insert 48; Lookup 1; Delete 6; Lookup 30;
            Insert 52; Delete 37; Range (34, 38); Delete 25; Lookup 47; Range (33, 52);
            Insert 21; Insert 48; Lookup 47; Insert 43; Lookup 18; Insert 1; Insert 19;
            Delete 44; Delete 29; Insert 14; Delete 12; Delete 29; Delete 19; Delete 11;
            Insert 29; Insert 18; Insert 8; Insert 8; Delete 48; Insert 3; Lookup 22;
            Range (14, 28); Lookup 15; Insert 49; Lookup 35; Lookup 19; Insert 16; Insert 34;
            Delete 1; Insert 47; Insert 42; Delete 29; Delete 17; Range (30, 17); Insert 5;
            Insert 17; Insert 48; Lookup 39; Lookup 20; Insert 11; Insert 2; Lookup 25;
            Insert 18; Range (17, 2); Delete 35; Insert 30; Delete 14; Lookup 29; Insert 42;
            Lookup 11; Lookup 18; Insert 2; Lookup 21; Lookup 37; Lookup 52; Insert 25;
            Insert 6; Lookup 24; Delete 8; Delete 52; Lookup 25; Insert 42; Delete 41;
            Delete 44; Delete 28; Lookup 25; Lookup 34; Insert 41; Delete 15; Insert 6;
            Delete 25; Delete 25; Delete 39; Delete 29; Insert 1; Insert 20; Range (13, 11);
            Delete 49; Delete 16; Delete 20; Delete 27; Range (45, 43); Insert 47; Delete 46;
            Delete 16; Lookup 50; Insert 44; Insert 19; Delete 11; Delete 38; Insert 19;
            Range (52, 49); Lookup 46; Insert 0; Lookup 5; Lookup 5; Delete 5; Range (41, 28);
            Insert 46; Delete 48; Delete 16; Insert 52; Insert 25; Lookup 19; Insert 30;
            Insert 16; Lookup 28; Delete 30; Range (31, 43); Lookup 40; Lookup 33; Insert 37;
            Lookup 47; Insert 3; Delete 9; Range (4, 48); Insert 5; Delete 50; Insert 13;
            Insert 7; Insert 30; Delete 23; Insert 35; Delete 36; Lookup 18; Lookup 28;
            Delete 45; Insert 7; Insert 29; Range (43, 41); Insert 19; Insert 30; Insert 11;
            Insert 23; Insert 35; Delete 28; Insert 28; Insert 7; Range (20, 11); Insert 48;
            Delete 0; Delete 37; Lookup 23; Delete 32
          ];
    },
    { ops = 200; applied = 100; injected = 0; validations = 1 } )

let all = [ b_tree_root_collapse; t_tree_underfull_internal; prefix_parent_overflow ]
