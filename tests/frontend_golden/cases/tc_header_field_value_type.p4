
            header inner_t { bit<8> x; }
            header outer_t { inner_t nested; }
            