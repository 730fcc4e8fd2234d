let call x = Lrp_ufix.Ulib.via_ref x
