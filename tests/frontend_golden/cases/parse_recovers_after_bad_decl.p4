
            header broken_t { bit<8> }
            header ok_t { bit<8> x; }
            