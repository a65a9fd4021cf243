
            header h_t { bit<8> x; }
            parser P(desc_in d, out h_t hdr) {
                state go { transition accept; }
            }
            