from .experiment import main
raise SystemExit(main())
