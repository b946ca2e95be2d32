include Dggt_domains.Err
